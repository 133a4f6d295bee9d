//go:build race

package tune

// raceEnabled drops TestGoldenPlans' piloted plans under -race: each pilot
// is a dycore.Run, which the race step covers in internal/dycore, and under
// the detector the 72 piloted plans take minutes. The plain test run checks
// them all.
const raceEnabled = true
