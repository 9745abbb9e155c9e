package osworld

// AnyOf requires at least one sub-condition.
func AnyOf(subs ...Cond) Cond { return Cond{Op: CondAny, Subs: subs} }

// ContainsStr requires string state at path to contain sub.
func ContainsStr(path, sub string) Cond { return Cond{Op: CondContains, Path: path, Value: sub} }
