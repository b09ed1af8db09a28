package fixture

// problemCodes is the generator's enum: every dialect constant must
// appear here. CodeOrphan is deliberately missing.
func problemCodes() []Code {
	return []Code{CodeBadInput, CodeStorage}
}
