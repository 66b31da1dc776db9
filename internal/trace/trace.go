// Package trace records and renders execution traces of dataflow runs:
// per-task lifecycle events, CSV/JSON export for external analysis, and an
// ASCII Gantt view of device occupancy — the tooling used to debug the
// scheduling behaviours behind the paper's figures.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Collector accumulates processing and target records from a runtime's hook
// bus. Attach before Run.
type Collector struct {
	Procs   []core.ProcRecord
	Targets []core.TargetRecord
}

// Attach registers the collector's hooks on a runtime (chaining any hooks
// already installed).
func (c *Collector) Attach(rt *core.Runtime) {
	core.Subscribe(&rt.Hooks.Process, func(r core.ProcRecord) {
		c.Procs = append(c.Procs, r)
	})
	core.Subscribe(&rt.Hooks.Target, func(r core.TargetRecord) {
		c.Targets = append(c.Targets, r)
	})
}

// WriteProcsCSV exports processing records as CSV with a header row.
func (c *Collector) WriteProcsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"task_id", "filter", "node", "device", "start", "end"}); err != nil {
		return err
	}
	for _, r := range c.Procs {
		rec := []string{
			strconv.FormatUint(r.TaskID, 10),
			r.Filter,
			strconv.Itoa(r.NodeID),
			r.Kind.String(),
			strconv.FormatFloat(float64(r.Start), 'g', -1, 64),
			strconv.FormatFloat(float64(r.End), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Gantt renders device busy intervals as a fixed-width ASCII chart over
// [0, horizon), one row per device, with `width` character cells. A cell is
// '#' if the device was busy for more than half of the cell's span, '+' if
// busy at all, '.' if idle.
func Gantt(devs []*hw.Device, horizon sim.Time, width int) string {
	if width < 1 || horizon <= 0 {
		return ""
	}
	rows := make([]string, 0, len(devs))
	sorted := append([]*hw.Device(nil), devs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	cell := horizon / sim.Time(width)
	for _, d := range sorted {
		busy := make([]sim.Time, width)
		for _, iv := range d.Intervals() {
			for b := 0; b < width; b++ {
				lo := sim.Time(b) * cell
				hi := lo + cell
				s, e := iv.Start, iv.End
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				if e > s {
					busy[b] += e - s
				}
			}
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-12s |", d.Name())
		for b := 0; b < width; b++ {
			switch {
			case busy[b] > cell/2:
				sb.WriteByte('#')
			case busy[b] > 0:
				sb.WriteByte('+')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('|')
		rows = append(rows, sb.String())
	}
	return strings.Join(rows, "\n") + "\n"
}

// Summary aggregates a run's records into a compact per-filter, per-device
// table: event counts and total busy time.
func (c *Collector) Summary() string {
	type key struct {
		filter string
		kind   hw.Kind
	}
	counts := map[key]int{}
	busy := map[key]sim.Time{}
	for _, r := range c.Procs {
		k := key{r.Filter, r.Kind}
		counts[k]++
		busy[k] += r.End - r.Start
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].filter != keys[j].filter {
			return keys[i].filter < keys[j].filter
		}
		return keys[i].kind < keys[j].kind
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-6s %10s %14s\n", "filter", "device", "events", "busy (s)")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%-16s %-6s %10d %14.3f\n",
			k.filter, k.kind, counts[k], float64(busy[k]))
	}
	return sb.String()
}
