package lint

import "mood/internal/lint/analysis"

// Suite returns the full moodvet analyzer set with the repo's
// production configuration — the set cmd/moodvet and TestRepoIsClean
// run.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DefaultClockDiscipline(),
		DefaultDetRand(),
		DefaultMapOrder(),
		DefaultRouteTable(),
		DefaultLockScope(),
		DefaultPersistIO(),
		DefaultAppendApply(),
		DefaultGoroutineJoin(),
		DefaultProblemDialect(),
		DefaultHotAlloc(),
	}
}
