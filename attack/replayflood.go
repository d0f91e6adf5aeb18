package attack

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// replayFlood solves one challenge legitimately, captures its own solution
// ACK, and replays the identical packet at the attack rate (§7 "Replay
// attacks"). Flow binding limits it to one queue slot at a time and the
// timestamp window eventually expires the solution.
type replayFlood struct {
	captured    *tcpkit.Segment
	capturePend bool
	// captureFn is r.capture bound once, so queueing the solve allocates
	// no closure.
	captureFn func(BotCtx, Solve)
}

var replayFloodInfo = Info{
	Name:    sweep.AttackReplayFlood,
	Summary: "captures one solved ACK and replays it at the attack rate (§7)",
}

func init() {
	Register(replayFloodInfo, func(BotCtx) (Strategy, error) {
		r := &replayFlood{}
		r.captureFn = r.capture
		return r, nil
	})
}

// Describe implements Strategy.
func (*replayFlood) Describe() Info { return replayFloodInfo }

// Tick implements Strategy: re-send the captured solution ACK; until one
// is captured, run a single legitimate solving handshake to obtain it.
func (r *replayFlood) Tick(ctx BotCtx) {
	if r.captured != nil {
		ctx.EmitAttack(*r.captured)
		return
	}
	if r.capturePend {
		return // capture handshake already in flight
	}
	r.capturePend = true
	sendRealSYN(ctx)
}

// OnSynAck implements Strategy: the capture handshake always solves,
// whatever the bot's Solves configuration says.
func (r *replayFlood) OnSynAck(ctx BotCtx, sa SynAck) {
	if !sa.Challenged {
		// Unprotected server: nothing worth capturing; behave like a
		// plain completion and stall (the replay needs a solution).
		ctx.SendHandshakeAck(sa.Port, sa.ISN, sa.ServerISN, nil)
		return
	}
	blk, err := tcpopt.ParseChallenge(sa.Challenge)
	if err != nil {
		r.capturePend = false
		return
	}
	hashes := sampleSolveHashes(ctx, blk)
	ctx.QueueSolve(float64(hashes), Solve{
		Port: sa.Port, ISN: sa.ISN, ServerISN: sa.ServerISN, Block: blk,
	}, r.captureFn)
}

// capture keeps the solved capture handshake's ACK for replay and sends
// it once itself.
func (r *replayFlood) capture(ctx BotCtx, s Solve) {
	ctx.Metrics().SolvesCompleted++
	sol := solveChallenge(ctx, s.Block)
	raw, err := encodeSolutionOptions(sol)
	if err != nil {
		r.capturePend = false
		return
	}
	seg := tcpkit.Segment{
		Src: ctx.Addr(), Dst: ctx.ServerAddr(),
		SrcPort: s.Port, DstPort: ctx.ServerPort(),
		Seq: s.ISN + 1, Ack: s.ServerISN + 1,
		Flags:   tcpkit.FlagACK,
		Options: raw,
	}
	r.captured = &seg
	ctx.EmitAttack(seg)
}
