// Package cli holds the cmd/repro flag groups that hide an output
// format: the -trace family (Chrome JSON or text by extension, event
// capacity, derived reports), the -profile-vt/-ledger
// observability pair (folded stacks or a table; JSON or a report), and
// the -cpuprofile/-memprofile pair. Each group registers its flags,
// builds its collector and writes its files at the end of the run.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Trace holds the values of the shared -trace* flags.
type Trace struct {
	// Path is the -trace output file; empty means tracing is off.
	Path string
	// Capacity bounds the event buffer (-trace-capacity).
	Capacity int
	// Reports prints trace-derived reports after the run (-trace-reports).
	Reports bool
}

// TraceFlags registers the shared tracing flags on fs and returns the
// struct they fill in at Parse time.
func TraceFlags(fs *flag.FlagSet) *Trace {
	tf := &Trace{}
	fs.StringVar(&tf.Path, "trace", "",
		"write a virtual-time event trace to this file (.json = Chrome/Perfetto format, otherwise text)")
	fs.IntVar(&tf.Capacity, "trace-capacity", trace.DefaultCapacity,
		"maximum buffered trace events; events past the cap are dropped and counted")
	fs.BoolVar(&tf.Reports, "trace-reports", false,
		"with -trace, also print trace-derived reports (utilization, contention, adaptation lag)")
	return tf
}

// Tracer builds a tracer according to the parsed flags, or returns nil
// when tracing is off — the nil tracer is free on every hot path.
func (tf *Trace) Tracer() *trace.Tracer {
	if tf.Path == "" {
		return nil
	}
	return trace.New(tf.Capacity)
}

// Flush writes the collected trace to the configured path — Chrome JSON
// when the path ends in .json, plain text otherwise — and, when
// -trace-reports is set, prints the derived reports to w. A nil tracer or
// empty path is a no-op.
func (tf *Trace) Flush(tr *trace.Tracer, w io.Writer) error {
	if tr == nil || tf.Path == "" {
		return nil
	}
	write := tr.WriteText
	if hasExt(tf.Path, ".json") {
		write = tr.WriteChrome
	}
	if err := writeFile(tf.Path, write); err != nil {
		return err
	}
	if tf.Reports && w != nil {
		fmt.Fprintf(w, "\n%s\n%s\n%s",
			trace.RenderUtilization(tr.UtilizationTimeline(60), tr.End()),
			trace.RenderContention(tr.ContentionProfile()),
			trace.RenderLag(tr.AdaptationLag()))
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// hasExt reports whether path ends in the extension ext, ignoring case.
func hasExt(path, ext string) bool { return strings.EqualFold(filepath.Ext(path), ext) }

// Observe holds the values of the shared virtual-time observability
// flags: -profile-vt (the exact attribution profiler of internal/profile)
// and -ledger (the adaptation decision ledger of internal/core). Both
// collectors are shared across every simulation of a run, so the
// experiments run their sweeps serially while either is enabled.
type Observe struct {
	// ProfilePath is the -profile-vt output file; empty means off.
	ProfilePath string
	// LedgerPath is the -ledger output file; empty means off.
	LedgerPath string

	prof   *profile.Profiler
	ledger *core.Ledger
}

// ObserveFlags registers the shared observability flags on fs and returns
// the struct they fill in at Parse time.
func ObserveFlags(fs *flag.FlagSet) *Observe {
	o := &Observe{}
	fs.StringVar(&o.ProfilePath, "profile-vt", "",
		"write an exact virtual-time attribution profile to this file (.folded = flamegraph collapsed stacks, otherwise a table plus wait/hold histograms); forces serial sweeps")
	fs.StringVar(&o.LedgerPath, "ledger", "",
		"write the adaptation decision ledger to this file (.json = machine-readable, otherwise a \"why did it switch?\" report); forces serial sweeps")
	return o
}

// Enabled reports whether any observability output was requested.
func (o *Observe) Enabled() bool { return o.ProfilePath != "" || o.LedgerPath != "" }

// Profiler lazily builds the shared profiler, or returns nil when
// -profile-vt is off — the nil profiler is free on every hot path.
func (o *Observe) Profiler() *profile.Profiler {
	if o.ProfilePath == "" {
		return nil
	}
	if o.prof == nil {
		o.prof = profile.New()
	}
	return o.prof
}

// Ledger lazily builds the shared decision ledger, or returns nil when
// -ledger is off.
func (o *Observe) Ledger() *core.Ledger {
	if o.LedgerPath == "" {
		return nil
	}
	if o.ledger == nil {
		o.ledger = core.NewLedger(core.DefaultLedgerCapacity)
	}
	return o.ledger
}

// Flush writes the collected profile and ledger to their configured
// paths: the profile as folded stacks when the path ends in .folded and
// as a table plus histograms otherwise; the ledger as JSON when the path
// ends in .json and as the decision report otherwise. Disabled outputs
// are no-ops.
func (o *Observe) Flush() error {
	if o.prof != nil {
		write := func(w io.Writer) error {
			if err := o.prof.WriteTable(w); err != nil {
				return err
			}
			return o.prof.WriteHistograms(w)
		}
		if hasExt(o.ProfilePath, ".folded") {
			write = o.prof.WriteFolded
		}
		if err := writeFile(o.ProfilePath, write); err != nil {
			return err
		}
	}
	if o.ledger != nil {
		write := o.ledger.WriteReport
		if hasExt(o.LedgerPath, ".json") {
			write = o.ledger.WriteJSON
		}
		return writeFile(o.LedgerPath, write)
	}
	return nil
}

// Profile holds the values of the shared -cpuprofile/-memprofile flags,
// so hot-path work on the simulator starts from a profile of the real
// binaries rather than a guess.
type Profile struct {
	// CPU is the -cpuprofile output file; empty disables CPU profiling.
	CPU string
	// Mem is the -memprofile output file; empty disables the heap profile.
	Mem string

	cpuFile *os.File
}

// ProfileFlags registers the shared profiling flags on fs and returns the
// struct they fill in at Parse time.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "",
		"write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "",
		"write a pprof allocation profile to this file at exit")
	return p
}

// Start begins CPU profiling if -cpuprofile was given. Call Stop (usually
// deferred) before exiting; profiles are only written on a run that
// reaches it. With neither flag set, both calls are no-ops.
func (p *Profile) Start() error {
	if p.CPU == "" {
		return nil
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the allocation profile. It is
// idempotent, so it is safe both deferred and called explicitly.
func (p *Profile) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		err := p.cpuFile.Close()
		p.cpuFile = nil
		if err != nil {
			return err
		}
	}
	if p.Mem != "" {
		path := p.Mem
		p.Mem = ""
		return writeFile(path, func(w io.Writer) error {
			runtime.GC() // flush recently freed objects out of the heap profile
			return pprof.WriteHeapProfile(w)
		})
	}
	return nil
}
