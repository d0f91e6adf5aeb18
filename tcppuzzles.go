// Package tcppuzzles reproduces "Revisiting Client Puzzles for State
// Exhaustion Attacks Resilience — Can Proof-of-Work Actually Work?"
// (Noureddine, Fawaz, Başar, Sanders; DSN 2019) as a Go library.
//
// The library is organised as:
//
//   - puzzle: the Juels–Brainard client-puzzle scheme — stateless issue,
//     brute-force solve, verification, difficulty parameters (k, m, l),
//     replay windows.
//   - tcpopt: the TCP option wire formats of the kernel extension
//     (challenge opcode 0xfc, solution opcode 0xfd) plus standard options.
//   - game: the Stackelberg difficulty-selection model — Theorem 1's
//     closed-form Nash difficulty ℓ* = w_av/(α+1), a finite-N numeric
//     solver, and the w_av/α profiling procedures.
//   - syncookie: the stateless SYN-cookie baseline.
//   - puzzlenet: the protocol over real TCP sockets (listener, dialer, and
//     a §7-style front-end verification proxy).
//   - sim: the simulated testbed — servers with the opportunistic
//     challenge controller, clients, botnets, and every experiment from
//     the paper's evaluation (sim.RunExperiment).
//
// Quickstart:
//
//	params, _ := tcppuzzles.NashParams(140630, 1.1) // (k=2, m=17), §4.4
//	issuer, _ := puzzle.NewIssuer(puzzle.WithParams(params))
//	ch := issuer.Issue(flow)
//	sol, _, _ := puzzle.Solve(ch)
//	err := issuer.Verify(flow, sol)
//
// See README.md for the architecture overview and package map,
// docs/EXPERIMENTS.md for the map from every reproduced figure and table
// to its driver, and docs/DETERMINISM.md for the determinism contract.
package tcppuzzles

import (
	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// Version identifies the library release.
const Version = "1.0.0"

// NashParams computes the paper's Nash-equilibrium puzzle difficulty from
// the two measured model parameters: w_av, the average number of hashes a
// client can spend within the 400 ms handshake budget, and α, the server's
// asymptotic per-user service parameter (§4.3–§4.4).
func NashParams(wav, alpha float64) (puzzle.Params, error) {
	return game.SelectParams(wav, alpha, game.SelectionConfig{})
}
