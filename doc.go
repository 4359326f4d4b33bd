// Package vacsem is a pure-Go implementation of VACSEM — formal
// verification of average errors in approximate circuits using
// simulation-enhanced model counting (Meng, Wang, Mai, Qian, De Micheli,
// DATE 2024).
//
// # What it does
//
// Given an exact circuit and an approximate version of it, vacsem
// computes exact values of average-error metrics over the full input
// space:
//
//   - error rate (ER): the fraction of input patterns producing any
//     wrong output bit,
//   - mean error distance (MED): the average |int(y) - int(y')|,
//   - mean Hamming distance (MHD): the average number of flipped bits,
//   - threshold probability: P(|int(y) - int(y')| > T).
//
// Verification builds an approximation miter, splits it into per-bit
// sub-miters, shrinks each with built-in logic synthesis, encodes it to
// CNF while preserving the circuit topology, and counts models with a
// DPLL-style #SAT engine that dynamically switches to word-parallel
// circuit simulation on dense residual components — the core idea of the
// paper. Counts are exact big integers, so 128-bit adders (2^256 input
// patterns) verify in well under a second.
//
// # Quick start
//
//	exact := vacsem.RippleCarryAdder(32)
//	approx := vacsem.LowerORAdder(32, 8)
//	spec := vacsem.MetricSpec{Kind: vacsem.MetricER}
//	res, err := vacsem.Verify(context.Background(), exact, approx, spec, vacsem.Options{})
//	if err != nil { ... }
//	fmt.Println("ER =", res.Value) // exact rational
//
// Three interchangeable engines allow the paper's comparisons:
// MethodVACSEM (simulation-enhanced counting), MethodDPLL (the same
// counter with simulation disabled — the role GANAK plays in the paper)
// and MethodEnum (exhaustive bit-parallel simulation).
//
// The cmd/vacsem CLI verifies circuits stored as BLIF or ASCII AIGER
// files; cmd/circgen generates the benchmark suite; cmd/vacsem-bench
// regenerates the paper's result tables.
package vacsem
