// Package fixture exercises problemdialect with a miniature of the
// service tier's error dialect: a Code type and its constants, a
// problem+json sink, carrier structs, and an OpenAPI generator file
// that must enumerate every code.
package fixture

// Code is the dialect's type.
type Code string

const (
	CodeBadInput Code = "bad_input"
	CodeStorage  Code = "storage"
	// CodeOrphan is declared but never enumerated by the generator.
	CodeOrphan Code = "orphan" // want `problemdialect: problem code CodeOrphan is not enumerated by the OpenAPI generator \(openapi\.go\)`
)

// notACode is an untyped constant outside the dialect.
const notACode = "whatever"

// Problem is the wire shape; Code is a carrier field.
type Problem struct {
	Code   Code
	Detail string
}

// chunkOutcome carries a code from decision point to sink.
type chunkOutcome struct {
	code Code
	n    int
}

// newProblem forwards its code parameter into the carrier.
func newProblem(status int, code Code, detail string) Problem {
	return Problem{Code: code, Detail: detail}
}

// writeError forwards its code parameter into the inner sink.
func writeError(w any, r any, status int, code Code) {
	_ = newProblem(status, code, "")
}

// localCode declares a code inside a function: the package scope, and
// so the OpenAPI check, never sees it.
func localCode() Code {
	const CodeScratch Code = "scratch" // want `problemdialect: Code constant CodeScratch declared outside problem\.go`
	return CodeScratch
}

// decodeCode is where a peer's code enters the type: conversions are
// allowed in this file only.
func decodeCode(s string) Code {
	return Code(s)
}
