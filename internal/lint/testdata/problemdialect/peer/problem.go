package peer

import "mood/internal/service"

// relabel mints a code from a string. A file of this name outside the
// package that declares the type grants nothing.
func relabel(s string) service.Code {
	return service.Code(s) // want `problemdialect: conversion to Code outside problem\.go`
}
