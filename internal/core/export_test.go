package core

// Programs the external test package shares with this package's tests.
const (
	RecursionKillProg   = recursionKillProg
	SiblingSurvivorProg = siblingSurvivorProg
)
