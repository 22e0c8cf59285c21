package credist

// EvaluatorUsed reports whether anything has asked for the model's spread
// evaluator, for the external tests.
func EvaluatorUsed(m *Model) bool { return m.evalUsed.Load() }
