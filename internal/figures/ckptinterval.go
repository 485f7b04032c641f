package figures

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"lwfs/internal/cluster"
)

// Checkpoint-interval modeling (experiment E23): how often can a
// machine-size job afford to checkpoint? A sampled Red Storm dump yields
// two costs — the *apparent* dump time t_a (ranks stall until acked) and
// the *durable* time t_d (bytes committed to disk). Young/Daly's first-order
// optimum balances stall cost against rework after a failure:
//
//	τ_opt = sqrt(2 · t_a · M)        (M = system MTBF)
//
// but a staging tier adds a second constraint the classic model misses: a
// new dump cannot usefully start before the previous one is durable, or a
// failure in the overlap window loses both. The drain tail therefore sets
// a floor on the interval:
//
//	τ_floor = t_d − t_a
//
// The effective interval is max(τ_opt, τ_floor), and machine efficiency at
// that interval is ≈ 1 − t_a/τ − τ/(2M). When τ_opt < τ_floor the tier's
// drain, not failure mathematics, dictates checkpoint frequency — buffer
// provisioning has replaced MTBF as the governing constraint.

// CkptIntervalOpts parameterize E23.
type CkptIntervalOpts struct {
	// Procs is the exact-rank count (default 2000); TotalRanks-Procs are
	// shadow load.
	Procs int
	// TotalRanks is the full job size (default 100,000).
	TotalRanks int
	// BytesPerProc is per-rank state (default 4 MiB; see RedStormOpts).
	BytesPerProc int64
	// Buffers is the staged arm's burst-node count (default 16).
	Buffers int
	// MTBFs lists system MTBF points (default 1h, 4h, 24h).
	MTBFs    []time.Duration
	Progress func(format string, args ...interface{}) // optional
}

// ckptIntervalSeed seeds both E23 arms.
const ckptIntervalSeed = 23

func (o *CkptIntervalOpts) defaults() {
	o.Procs = cmp.Or(o.Procs, 2000)
	o.TotalRanks = cmp.Or(o.TotalRanks, 100000)
	o.BytesPerProc = cmp.Or(o.BytesPerProc, 4<<20)
	o.Buffers = cmp.Or(o.Buffers, 16)
	o.MTBFs = orDefault(o.MTBFs, []time.Duration{time.Hour, 4 * time.Hour, 24 * time.Hour})
}

// CkptIntervalArm is one measured dump configuration.
type CkptIntervalArm struct {
	Staged   bool
	Apparent time.Duration // t_a: ranks resume computing
	Durable  time.Duration // t_d: bytes on disk, manifest committed
}

// CkptIntervalRow is the model evaluated at one (arm, MTBF) point.
type CkptIntervalRow struct {
	Arm        CkptIntervalArm
	MTBF       time.Duration
	TauOpt     time.Duration // Young/Daly sqrt(2·t_a·M)
	TauFloor   time.Duration // drain tail t_d − t_a
	Tau        time.Duration // max of the two
	Efficiency float64       // 1 − t_a/τ − τ/(2M)
	DrainBound bool          // τ_floor governs, not failure math
}

// CkptIntervalResult is the whole experiment.
type CkptIntervalResult struct {
	Opts     CkptIntervalOpts
	Arms     []CkptIntervalArm
	Rows     []CkptIntervalRow
	Captures []MetricsCapture // one per arm
}

// CkptIntervalRun measures both arms and evaluates the interval model.
func CkptIntervalRun(opts CkptIntervalOpts) (CkptIntervalResult, error) {
	opts.defaults()
	res := CkptIntervalResult{Opts: opts}
	for _, staged := range []bool{false, true} {
		rsOpts := RedStormOpts{
			Exact:        []int{opts.Procs},
			TotalRanks:   opts.TotalRanks,
			BytesPerProc: opts.BytesPerProc,
			Buffers:      opts.Buffers,
		}
		pt, mc, err := redStormPoint(rsOpts, opts.Procs, staged, ckptIntervalSeed)
		if err != nil {
			return res, fmt.Errorf("ckptinterval staged=%v: %w", staged, err)
		}
		arm := CkptIntervalArm{Staged: staged, Apparent: pt.Apparent, Durable: pt.Durable}
		res.Arms = append(res.Arms, arm)
		mc.Label = fmt.Sprintf("staged=%v", staged)
		res.Captures = append(res.Captures, mc)
		report(opts.Progress, "ckptinterval staged=%v: t_a %v, t_d %v",
			staged, arm.Apparent.Round(time.Millisecond), arm.Durable.Round(time.Millisecond))
		for _, mtbf := range opts.MTBFs {
			res.Rows = append(res.Rows, intervalRow(arm, mtbf))
		}
	}
	return res, nil
}

func intervalRow(arm CkptIntervalArm, mtbf time.Duration) CkptIntervalRow {
	row := CkptIntervalRow{Arm: arm, MTBF: mtbf}
	row.TauOpt = time.Duration(math.Sqrt(2 * float64(arm.Apparent) * float64(mtbf)))
	row.TauFloor = arm.Durable - arm.Apparent
	row.Tau = max(row.TauOpt, row.TauFloor)
	row.DrainBound = row.TauFloor > row.TauOpt
	ta, tau, m := float64(arm.Apparent), float64(row.Tau), float64(mtbf)
	row.Efficiency = 1 - ta/tau - tau/(2*m)
	if row.Efficiency < 0 {
		row.Efficiency = 0
	}
	return row
}

// Render prints the measured arms and the interval table.
func (r CkptIntervalResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Checkpoint interval (E23): %d-rank job (%d exact), %d MB/rank, %d I/O nodes\n",
		r.Opts.TotalRanks, r.Opts.Procs, r.Opts.BytesPerProc>>20, cluster.RedStorm().StorageNodes)
	fmt.Fprintln(w, "# τ_opt = sqrt(2·t_a·MTBF) (Young/Daly); τ_floor = t_d − t_a (previous dump must be durable);")
	fmt.Fprintln(w, "# efficiency ≈ 1 − t_a/τ − τ/(2·MTBF) at τ = max(τ_opt, τ_floor)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "arm\tt_a\tt_d\tMTBF\tτ_opt\tτ_floor\tτ\tefficiency\tgoverned by")
	for _, row := range r.Rows {
		arm := "direct"
		if row.Arm.Staged {
			arm = "staged"
		}
		gov := "failure math"
		if row.DrainBound {
			gov = "drain tail"
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%v\t%.4f\t%s\n",
			arm, row.Arm.Apparent.Round(time.Millisecond), row.Arm.Durable.Round(time.Millisecond),
			row.MTBF, row.TauOpt.Round(time.Second), row.TauFloor.Round(time.Millisecond),
			row.Tau.Round(time.Second), row.Efficiency, gov)
	}
	tw.Flush()
	for _, row := range r.Rows {
		if row.DrainBound {
			fmt.Fprintf(w, "# warning: at MTBF %v the staged drain tail (%v) exceeds the Young/Daly optimum (%v) — checkpoint frequency is drain-bound; provision buffers or drain bandwidth, not just MTBF margin\n",
				row.MTBF, row.TauFloor.Round(time.Millisecond), row.TauOpt.Round(time.Second))
			break
		}
	}
}
