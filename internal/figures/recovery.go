package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// The journaled-staging sweep (experiment E16): crash the burst buffer
// mid-drain and measure what the crash costs under each staging mode. A
// memory-only buffer turns the crash into an abort — the whole dump is
// redone by the application. A journaled buffer turns it into bounded
// recovery latency: replay plus re-drain, paid inside the commit tail. The
// sweep varies the journal medium's sync cost (NVRAM- to disk-class) to
// show the trade the journal makes on the healthy path: every staged
// extent pays one journal append + flush before its ack, so a slower
// barrier erodes the tier's apparent-time win.

// RecoveryMedium is one staging mode under test.
type RecoveryMedium struct {
	Name    string
	Journal bool
	Disk    osd.DiskParams // journal media calibration (Journal only)
}

// RecoveryOpts parameterize the recovery sweep.
type RecoveryOpts struct {
	Trials   int
	Progress func(format string, args ...interface{}) // optional
}

// The recovery sweep's fixed workload: a small checkpoint through one
// buffer whose throttled drain (~2 s per rank at 2 MB) leaves a wide
// mid-drain window to crash inside.
const (
	recoveryProcs        = 4
	recoveryServers      = 2
	recoveryBytesPerProc = 2 << 20
	recoveryDrainBW      = 1 << 20 // per-worker drain throttle, bytes/s
	recoveryCrashAt      = 100 * time.Millisecond
	recoveryRestartAt    = 200 * time.Millisecond
)

// recoveryMedia are the staging modes under test: memory-only plus journals
// on NVRAM-, SSD- and disk-class media (sync barrier 5 µs → 500 µs).
var recoveryMedia = []RecoveryMedium{
	{Name: "memory"},
	journalMedium("journal-nvram", 5*time.Microsecond),
	journalMedium("journal-ssd", 25*time.Microsecond),
	journalMedium("journal-disk", 500*time.Microsecond),
}

func journalMedium(name string, sync time.Duration) RecoveryMedium {
	d := osd.BurstJournalParams()
	d.SyncCost = sync
	return RecoveryMedium{Name: name, Journal: true, Disk: d}
}

func (o *RecoveryOpts) defaults() {
	o.Trials = cmp.Or(o.Trials, 3)
}

// RecoveryPoint is one medium's measurements.
type RecoveryPoint struct {
	Medium          RecoveryMedium
	HealthyApparent stats.Sample // no-fault checkpoint time as acked, ms
	HealthyDurable  stats.Sample // no-fault commit-inclusive time, ms
	CrashDurable    stats.Sample // commit-inclusive time through the crash, ms (committed trials)
	Recovered       int          // crash trials that committed through recovery
	Aborted         int          // crash trials that rolled back
}

// RecoveryResult is the whole sweep.
type RecoveryResult struct {
	Opts     RecoveryOpts
	Points   []RecoveryPoint
	Captures []MetricsCapture // healthy and crash phase of each medium, last trial
}

// RecoverySweep measures healthy and crashed checkpoint runs per medium.
func RecoverySweep(opts RecoveryOpts) (RecoveryResult, error) {
	opts.defaults()
	res := RecoveryResult{Opts: opts}
	for _, med := range recoveryMedia {
		point := RecoveryPoint{Medium: med}
		for trial := 0; trial < opts.Trials; trial++ {
			for _, crash := range []bool{false, true} {
				r, mc, err := runRecoveryTrial(med, trial, crash)
				if err != nil {
					return res, fmt.Errorf("recovery %s trial=%d crash=%v: %w", med.Name, trial, crash, err)
				}
				if trial == opts.Trials-1 {
					mc.Label = fmt.Sprintf("medium=%s crash=%v", med.Name, crash)
					res.Captures = append(res.Captures, mc)
				}
				switch {
				case !crash:
					if r.Aborted {
						return res, fmt.Errorf("recovery %s trial=%d: healthy run aborted", med.Name, trial)
					}
					point.HealthyApparent.Add(float64(r.Elapsed) / float64(time.Millisecond))
					point.HealthyDurable.Add(float64(r.Durable) / float64(time.Millisecond))
				case r.Aborted:
					point.Aborted++
				default:
					point.Recovered++
					point.CrashDurable.Add(float64(r.Durable) / float64(time.Millisecond))
				}
			}
		}
		report(opts.Progress, "recovery %s: healthy durable %s ms, crash %d recovered / %d aborted",
			med.Name, point.HealthyDurable.String(), point.Recovered, point.Aborted)
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func runRecoveryTrial(med RecoveryMedium, trial int, crash bool) (checkpoint.Result, MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(recoveryServers)
	spec.ComputeNodes = recoveryProcs
	spec.BurstNodes = 1
	spec.Burst.DrainBW = recoveryDrainBW
	spec.BurstJournal = med.Journal
	spec.BurstJournalDisk = med.Disk

	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	mc := MetricsCapture{Base: cl.Metrics().Snapshot()}
	cfg := checkpoint.Config{
		Procs:           recoveryProcs,
		BytesPerProc:    recoveryBytesPerProc,
		Seed:            int64(trial)*104729 + 17,
		Burst:           l.BurstTargets(),
		DrainTimeout:    300 * time.Millisecond,
		RecoveryTimeout: 120 * time.Second,
	}
	if crash {
		bb := l.Burst[0]
		cl.Spawn("chaos", func(p *sim.Proc) {
			p.Sleep(recoveryCrashAt)
			bb.Crash()
			p.Sleep(recoveryRestartAt - recoveryCrashAt)
			if _, err := bb.Restart(p); err != nil {
				panic(fmt.Sprintf("figures: buffer restart: %v", err))
			}
		})
	}
	r, err := checkpoint.SetupLWFS(cl, l, cfg)
	if err != nil {
		return checkpoint.Result{}, mc, err
	}
	if err := cl.Run(); err != nil {
		return checkpoint.Result{}, mc, err
	}
	mc.Final = cl.Metrics().Snapshot()
	return *r, mc, nil
}

// Render prints the sweep: the journal's healthy-path tax (apparent time vs
// the memory row) against its payoff (crash trials that commit instead of
// aborting, and what the recovery detour costs in durable time).
func (r RecoveryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Journaled staging under buffer crash: %d-process checkpoint, %d servers, %d MB/process, crash@%v restart@%v, %d trials\n",
		recoveryProcs, recoveryServers, recoveryBytesPerProc>>20, recoveryCrashAt, recoveryRestartAt, r.Opts.Trials)
	fmt.Fprintln(w, "# healthy columns: no-fault runs; crash columns: buffer crashed mid-drain and restarted")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "medium\tjournal sync\thealthy apparent (ms)\thealthy durable (ms)\tcrash outcome\tcrash durable (ms)\trecovery cost (ms)")
	for _, pt := range r.Points {
		syncLabel := "-"
		if pt.Medium.Journal {
			syncLabel = pt.Medium.Disk.SyncCost.String()
		}
		outcome := fmt.Sprintf("%d/%d recovered", pt.Recovered, pt.Recovered+pt.Aborted)
		if pt.Recovered == 0 {
			outcome = fmt.Sprintf("%d/%d aborted", pt.Aborted, pt.Recovered+pt.Aborted)
		}
		crashDur, cost := "-", "-"
		if pt.CrashDurable.N() > 0 {
			crashDur = pt.CrashDurable.String()
			cost = fmt.Sprintf("%.1f", pt.CrashDurable.Mean()-pt.HealthyDurable.Mean())
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			pt.Medium.Name, syncLabel, pt.HealthyApparent.String(), pt.HealthyDurable.String(),
			outcome, crashDur, cost)
	}
	tw.Flush()
}
