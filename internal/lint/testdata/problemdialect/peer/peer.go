// Package peer checks the production dialect from outside the package
// that declares it: the analyzer follows the type into every package.
package peer

import (
	"net/http"

	"mood/internal/service"
)

// declared is the canonical shape.
func declared() service.Problem {
	return service.NewProblem(http.StatusServiceUnavailable, service.CodeRouting, "")
}

// literal leaks an undeclared code from another package.
func literal() service.Problem {
	return service.NewProblem(http.StatusTeapot, "teapot", "x") // want `problemdialect: problem code "teapot" is not a Code constant from problem\.go`
}

// carrier: a result line built outside the service package.
func carrier() service.BatchResult {
	return service.BatchResult{Code: "overloaded"} // want `problemdialect: problem code "overloaded" is not a Code constant`
}

// forwarded: a decoded code moves by its type.
func forwarded(p service.Problem) service.Problem {
	return service.NewProblem(p.Status, p.Code, p.Detail)
}
