package ilt

import (
	"fmt"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
)

// Snapshot is a checkpoint of the descent loop between two iterations: the
// unconstrained pixel variables P (the mask is recomputed as sig(theta_M*P)
// on resume), the step/jump schedule, the heavy-ball velocity, and the
// best-iterate bookkeeping of Alg. 1 line 9. The optimizer is RNG-free by
// construction, so resuming from a snapshot replays the remaining
// iterations bit-identically to an uninterrupted run.
//
// Snapshots are emitted through Config.OnSnapshot after every completed
// iteration and consumed through Config.Resume. All fields are deep copies;
// holding one costs roughly three grids of memory.
type Snapshot struct {
	// Iter is the number of completed iterations; a resumed run continues
	// at this iteration index.
	Iter int

	P        *grid.Field // unconstrained pixel variables (Eq. 8 logits)
	Velocity *grid.Field // heavy-ball state; nil when momentum is off or unused so far

	Step  float64 // current step size after decay/jumps
	Jumps int     // jump-technique budget remaining

	// Best-iterate state (Alg. 1 line 9).
	BestObjective float64     // lowest Eq. 7 proxy score seen
	BestSurrogate float64     // surrogate F at the best iterate (tie-break)
	BestGray      *grid.Field // continuous mask of the best iterate; nil before the first iteration completes

	History []IterStats // per-iteration records up to Iter
}

// snapshot deep-copies the loop state into a Snapshot.
func snapshot(iter int, p, velocity *grid.Field, step float64, jumps int, best *Result, bestSurrogate float64) *Snapshot {
	s := &Snapshot{
		Iter:          iter,
		P:             p.Clone(),
		Step:          step,
		Jumps:         jumps,
		BestObjective: best.Objective,
		BestSurrogate: bestSurrogate,
		History:       append([]IterStats(nil), best.History...),
	}
	if velocity != nil {
		s.Velocity = velocity.Clone()
	}
	if best.MaskGray != nil {
		s.BestGray = best.MaskGray.Clone()
	}
	return s
}

// validate checks a resume snapshot against the simulator grid.
func (s *Snapshot) validate(n int) error {
	switch {
	case s.P == nil:
		return fmt.Errorf("ilt: resume snapshot has no P field")
	case s.P.W != n || s.P.H != n:
		return fmt.Errorf("ilt: resume snapshot P is %dx%d but the simulator grid is %dx%d", s.P.W, s.P.H, n, n)
	case s.Velocity != nil && (s.Velocity.W != n || s.Velocity.H != n):
		return fmt.Errorf("ilt: resume snapshot velocity is %dx%d but the simulator grid is %dx%d", s.Velocity.W, s.Velocity.H, n, n)
	case s.BestGray != nil && (s.BestGray.W != n || s.BestGray.H != n):
		return fmt.Errorf("ilt: resume snapshot best mask is %dx%d but the simulator grid is %dx%d", s.BestGray.W, s.BestGray.H, n, n)
	case s.Iter < 0:
		return fmt.Errorf("ilt: resume snapshot has negative iteration %d", s.Iter)
	}
	return nil
}

// Snapshot binary format: one MTSN frame whose payload holds a version,
// the scalar state, the three fields (each W, H, data; -1 for nil), then
// the history. Floats are stored as IEEE-754 bit patterns so the round
// trip is exact — the bit-identical resume guarantee survives
// serialization.
const (
	snapMagic   uint32 = 0x4e53544d // "MTSN"
	snapVersion        = 2          // 1 was the pre-frame MOSNAP01 layout
)

// MarshalBinary encodes the snapshot for storage (checkpoint files, the
// job-service drain path).
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	return frame.Marshal(snapMagic, func(e *frame.Enc) error {
		e.I64(snapVersion)
		e.I64(int64(s.Iter))
		e.F64(s.Step)
		e.I64(int64(s.Jumps))
		e.F64(s.BestObjective)
		e.F64(s.BestSurrogate)
		e.Field(s.P)
		e.Field(s.Velocity)
		e.Field(s.BestGray)
		e.I64(int64(len(s.History)))
		for _, st := range s.History {
			e.I64(int64(st.Iter))
			e.F64(st.Objective)
			e.F64(st.FTarget)
			e.F64(st.FPvb)
			e.F64(st.GradRMS)
			e.I64(int64(st.ProxyEPE))
			e.F64(st.ProxyPVBandNM2)
			e.F64(st.ProxyScore)
			e.I64(int64(st.EPEViolations))
			e.F64(st.PVBandNM2)
			e.F64(st.Score)
		}
		return nil
	})
}

// iterStatsBytes is one encoded IterStats: eleven scalars.
const iterStatsBytes = 11 * 8

// UnmarshalBinary decodes a snapshot written by MarshalBinary, rejecting
// corrupt or truncated input via the frame CRC and bounding every count
// by the payload before allocating.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	payload, err := frame.Open(snapMagic, data)
	if err != nil {
		return fmt.Errorf("ilt: snapshot: %w", err)
	}
	d := frame.NewDec(payload)
	d.Version(snapVersion)
	s.Iter = int(d.I64())
	s.Step = d.F64()
	s.Jumps = int(d.I64())
	s.BestObjective = d.F64()
	s.BestSurrogate = d.F64()
	s.P = d.Field()
	s.Velocity = d.Field()
	s.BestGray = d.Field()
	s.History = make([]IterStats, d.Count(iterStatsBytes))
	for i := range s.History {
		st := &s.History[i]
		st.Iter = int(d.I64())
		st.Objective = d.F64()
		st.FTarget = d.F64()
		st.FPvb = d.F64()
		st.GradRMS = d.F64()
		st.ProxyEPE = int(d.I64())
		st.ProxyPVBandNM2 = d.F64()
		st.ProxyScore = d.F64()
		st.EPEViolations = int(d.I64())
		st.PVBandNM2 = d.F64()
		st.Score = d.F64()
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("ilt: snapshot: %w", err)
	}
	return nil
}
