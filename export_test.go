package credist

// EvaluatorUsed reports whether anything has asked for the model's spread
// evaluator, for the external tests.
func EvaluatorUsed(m *Model) bool { return m.evalUsed.Load() }

// ReferenceModel binds m's learned credit rule and options to ds with
// nothing scanned: the frozen-parameter model over a combined dataset
// that Model.Ingest must match bit for bit. It shares no snapshot code
// with the path it checks.
func ReferenceModel(ds *Dataset, m *Model) *Model { return newModel(ds, m.opts, m.credit) }
