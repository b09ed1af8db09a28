package lint_test

import (
	"testing"

	"mood/internal/lint"
	"mood/internal/lint/analysis"
	"mood/internal/lint/linttest"
)

// Each analyzer runs over its fixture package with a fixture-scoped
// Config, so the testdata tree can place itself inside or outside the
// analyzer's jurisdiction without touching the production defaults.

func TestClockDiscipline(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/clockdiscipline",
		PkgPath:   "fixture/clockuser",
		Analyzers: []*analysis.Analyzer{clockFor("fixture/clockallowed")},
	})
}

func TestClockDisciplineAllowedPackage(t *testing.T) {
	// Same analyzer, but the fixture type-checks as the allowed package:
	// zero diagnostics expected (the fixture has no want comments).
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/clockdiscipline/allowed",
		PkgPath:   "fixture/clockallowed",
		Analyzers: []*analysis.Analyzer{clockFor("fixture/clockallowed")},
	})
}

func clockFor(allowed string) *analysis.Analyzer {
	return lint.ClockDiscipline(lint.ClockDisciplineConfig{
		AllowedPackages: map[string]bool{allowed: true},
	})
}

func TestPersistIO(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/persistio",
		PkgPath:   "fixture/persistuser",
		Analyzers: []*analysis.Analyzer{persistFor("fixture/persistallowed")},
	})
}

func TestPersistIOAllowedPackage(t *testing.T) {
	// Same analyzer, but the fixture type-checks as the allowed package:
	// zero diagnostics expected (the fixture has no want comments).
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/persistio/allowed",
		PkgPath:   "fixture/persistallowed",
		Analyzers: []*analysis.Analyzer{persistFor("fixture/persistallowed")},
	})
}

func persistFor(allowed string) *analysis.Analyzer {
	return lint.PersistIO(lint.PersistIOConfig{
		AllowedPackages: map[string]bool{allowed: true},
	})
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/detrand",
		PkgPath:   "fixture/randuser",
		Analyzers: []*analysis.Analyzer{detRandFor("fixture/randallowed")},
	})
}

func TestDetRandAllowedPackage(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/detrand/allowed",
		PkgPath:   "fixture/randallowed",
		Analyzers: []*analysis.Analyzer{detRandFor("fixture/randallowed")},
	})
}

func detRandFor(allowed string) *analysis.Analyzer {
	return lint.DetRand(lint.DetRandConfig{
		AllowedPackages: map[string]bool{allowed: true},
	})
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/maporder",
		PkgPath: "fixture/maporder",
		Analyzers: []*analysis.Analyzer{lint.MapOrder(lint.MapOrderConfig{
			Packages: map[string]bool{"fixture/maporder": true},
		})},
	})
}

func TestMapOrderOutsideScope(t *testing.T) {
	// The same fixture type-checked as a package outside the
	// determinism-critical set produces nothing: scope is the rule.
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/maporder",
		PkgPath: "fixture/elsewhere",
		Analyzers: []*analysis.Analyzer{lint.MapOrder(lint.MapOrderConfig{
			Packages: map[string]bool{"fixture/maporder": true},
		})},
		IgnoreWants: true,
	})
}

func TestRouteTable(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/routetable",
		PkgPath: "fixture/routetable",
		Analyzers: []*analysis.Analyzer{lint.RouteTable(lint.RouteTableConfig{
			Package:    "fixture/routetable",
			MuxFiles:   map[string]bool{"routes.go": true},
			ErrorFiles: map[string]bool{"problem.go": true},
		})},
	})
}

func TestLockScope(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/lockscope",
		PkgPath: "fixture/lockscope",
		Analyzers: []*analysis.Analyzer{lint.LockScope(lint.LockScopeConfig{
			Package: "fixture/lockscope",
		})},
	})
}

func TestAppendApply(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/appendapply",
		PkgPath: "fixture/appendapply",
		Analyzers: []*analysis.Analyzer{lint.AppendApply(lint.AppendApplyConfig{
			Package:    "fixture/appendapply",
			StateTypes: map[string]bool{"stateShard": true, "UserStats": true},
		})},
	})
}

func TestGoroutineJoin(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/goroutinejoin",
		PkgPath: "fixture/goroutinejoin",
		Analyzers: []*analysis.Analyzer{lint.GoroutineJoin(lint.GoroutineJoinConfig{
			ExcludePathPrefixes: []string{"fixture/cmd/"},
		})},
	})
}

func TestGoroutineJoinExcludedPackage(t *testing.T) {
	// The same fixture type-checked as a cmd/ package produces nothing:
	// binaries own the process lifetime.
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/goroutinejoin",
		PkgPath: "fixture/cmd/tool",
		Analyzers: []*analysis.Analyzer{lint.GoroutineJoin(lint.GoroutineJoinConfig{
			ExcludePathPrefixes: []string{"fixture/cmd/"},
		})},
		IgnoreWants: true,
	})
}

func TestProblemDialect(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/problemdialect",
		PkgPath: "fixture/problemdialect",
		Analyzers: []*analysis.Analyzer{lint.ProblemDialect(lint.ProblemDialectConfig{
			Package: "fixture/problemdialect",
		})},
	})
}

func TestProblemDialectOtherPackage(t *testing.T) {
	// The production analyzer over a package that imports the service:
	// the dialect is matched by its type, so it holds everywhere.
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/problemdialect/peer",
		PkgPath:   "fixture/problempeer",
		Analyzers: []*analysis.Analyzer{lint.DefaultProblemDialect()},
	})
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:     "testdata/hotalloc",
		PkgPath: "fixture/hotalloc",
		Analyzers: []*analysis.Analyzer{lint.HotAlloc(lint.HotAllocConfig{
			HotFuncs: map[string]map[string]bool{
				"fixture/hotalloc": {
					"ScanHot": true, "CaptureHot": true, "AppendHot": true,
					"BoxHot": true, "WaivedHot": true,
				},
			},
		})},
	})
}

func TestWaiverContract(t *testing.T) {
	linttest.Run(t, linttest.Fixture{
		Dir:       "testdata/waiver",
		PkgPath:   "fixture/waiver",
		Analyzers: []*analysis.Analyzer{clockFor("fixture/clockallowed")},
		Extra: []string{
			`waiver: bare mood:allow waiver: a reason is mandatory`,
			`waiver: bare mood:allow waiver: a reason is mandatory`,
			`waiver: mood:allow names no analyzer`,
			`waiver: mood:allow names unknown analyzer "nosuchanalyzer"`,
		},
	})
}
