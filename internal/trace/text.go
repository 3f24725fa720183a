package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText renders the recorded events as a plain-text log, one line per
// event:
//
//	      time  proc thread  kind          subject  details
//	40.79µs     p0   t3      lock-acquire  qlock    wait=613ns contended
//
// Like WriteChrome, the output is byte-identical across same-seed runs.
func (tr *Tracer) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range tr.Events() {
		proc, thread := "p-", "t-"
		if ev.Proc >= 0 {
			proc = fmt.Sprintf("p%d", ev.Proc)
		}
		if ev.Thread >= 0 {
			thread = fmt.Sprintf("t%d", ev.Thread)
		}
		if _, err := fmt.Fprintf(bw, "%12d  %-4s %-5s %-13s %s\n",
			int64(ev.At), proc, thread, ev.Kind, detail(ev)); err != nil {
			return err
		}
	}
	if d := tr.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(bw, "# %d events dropped at capacity bound\n", d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// detail renders the kind-specific tail of a text log line.
func detail(ev Event) string {
	switch ev.Kind {
	case KindThreadFork:
		return ev.Name
	case KindThreadBlock:
		if ev.A > 0 {
			return fmt.Sprintf("timeout=%dns", ev.A)
		}
		return ""
	case KindLockRequest:
		return fmt.Sprintf("%s waiting=%d", ev.Name, ev.A)
	case KindLockBlocked, KindLockRelease:
		return ev.Name
	case KindLockAcquire:
		s := fmt.Sprintf("%s wait=%dns", ev.Name, ev.A)
		if ev.B != 0 {
			s += " contended"
		}
		return s
	case KindSample:
		return fmt.Sprintf("%s value=%d collected=%d", ev.Name, ev.B, ev.A)
	case KindReconfig:
		return fmt.Sprintf("%s %s", ev.Name, ev.Extra)
	case KindMonitorRecord:
		return fmt.Sprintf("sensor=%d value=%d", ev.B, ev.A)
	case KindMonitorDeliver:
		return fmt.Sprintf("value=%d lag=%dns", ev.B, int64(ev.At)-ev.A)
	case KindSubmit:
		s := fmt.Sprintf("%s depth=%d", ev.Name, ev.A)
		if ev.B != 0 {
			s += " self-combine"
		}
		return s
	case KindCombine:
		s := fmt.Sprintf("%s batch=%d", ev.Name, ev.A)
		if ev.B != 0 {
			s += " server"
		}
		return s
	default:
		return ""
	}
}
