// The benchmark is a module of its own so that it builds apart from the
// engine's packages; the import path under repro/ is what lets it use
// repro/internal/... .
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
