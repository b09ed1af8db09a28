package fixture

// constantAtSink is the canonical shape.
func constantAtSink(w, r any) {
	writeError(w, r, 400, CodeBadInput)
}

// literalAtSink leaks an undeclared code onto the wire.
func literalAtSink(w, r any) {
	writeError(w, r, 400, "oops") // want `problemdialect: problem code "oops" is not a Code constant from problem\.go`
}

// namedAtSink: an untyped constant converts implicitly, and is still
// not a dialect constant.
func namedAtSink(w, r any) {
	writeError(w, r, 400, notACode) // want `problemdialect: problem code notACode is not a Code constant`
}

// orphanAtSink: a declared constant is fine at a sink; that no
// generator enumerates it is reported at its declaration.
func orphanAtSink(w, r any) {
	writeError(w, r, 409, CodeOrphan)
}

// emptyCodeAtSink: "" is the explicit no-code marker, not a dialect leak.
func emptyCodeAtSink(w, r any) {
	writeError(w, r, 500, "")
}

// parseQ returns a code among other results.
func parseQ(q string) (int, Code) {
	if q == "" {
		return 0, CodeBadInput
	}
	return 1, ""
}

// multiValueAtSink: the variable's type carries the dialect.
func multiValueAtSink(w, r any, q string) {
	n, errCode := parseQ(q)
	if errCode != "" {
		writeError(w, r, 400, errCode)
	}
	_ = n
}

// convertedAtSink mints a code from request input.
func convertedAtSink(w, r any, q string) {
	writeError(w, r, 400, Code(q)) // want `problemdialect: conversion to Code outside problem\.go`
}

// CodeLocal is a dialect constant in the wrong file: the OpenAPI check
// never sees it.
const CodeLocal Code = "local" // want `problemdialect: Code constant CodeLocal declared outside problem\.go`

// carrierLitConstant and carrierLitLiteral: composite literals of a
// carrier type.
func carrierLitConstant() chunkOutcome {
	return chunkOutcome{code: CodeStorage, n: 1}
}

func carrierLitLiteral() chunkOutcome {
	return chunkOutcome{code: "disk_full", n: 0} // want `problemdialect: problem code "disk_full" is not a Code constant`
}

// carrierAssigns: field assignments, and reading a carrier field back.
func carrierAssigns(out *chunkOutcome, p *Problem) {
	out.code = CodeStorage
	p.Code = out.code
	out.code = "late mutation" // want `problemdialect: problem code "late mutation" is not a Code constant`
}

// waivedLiteral is the sanctioned escape hatch.
func waivedLiteral(w, r any) {
	//mood:allow problemdialect -- fixture: probe code used only by the fault harness
	writeError(w, r, 500, "fault_probe")
}
