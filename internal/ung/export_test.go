package ung

// NewLocalExpander exposes the in-process pool to the external test package.
var NewLocalExpander = newLocalExpander
