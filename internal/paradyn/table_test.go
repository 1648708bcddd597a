package paradyn

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tdp/internal/procsim"
)

// fmtTable is the table as the daemons printed it through fmt; the
// profile text lands in ToolDaemonOutput files, so AppendTable must
// reproduce it byte for byte.
func fmtTable(stats map[string]FuncStats) string {
	type row struct {
		name string
		s    FuncStats
	}
	rows := make([]row, 0, len(stats))
	var total int64
	for name, s := range stats {
		rows = append(rows, row{name, s})
		total += s.TimeMicros
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s.TimeMicros != rows[j].s.TimeMicros {
			return rows[i].s.TimeMicros > rows[j].s.TimeMicros
		}
		return rows[i].name < rows[j].name
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %12s %7s\n", "FUNCTION", "CALLS", "TIME(us)", "SHARE")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.s.TimeMicros) / float64(total)
		}
		fmt.Fprintf(&sb, "%-24s %10d %12d %6.1f%%\n", r.name, r.s.Calls, r.s.TimeMicros, share*100)
	}
	return sb.String()
}

// fmtProfile is a daemon's stdout profile as printed through fmt.
func fmtProfile(machine string, rank int, exit procsim.ExitStatus, profile map[string]FuncStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "paradynd %s rank %d: %s\n", machine, rank, exit)
	sb.WriteString(fmtTable(profile))
	if fn, share, ok := Bottleneck(profile, "main"); ok {
		fmt.Fprintf(&sb, "bottleneck: %s (%.0f%%)\n", fn, share*100)
	}
	return sb.String()
}

var tableCases = map[string]map[string]FuncStats{
	"empty": {},
	"science app": {
		"main":             {Calls: 1, TimeMicros: 4021},
		"read_input":       {Calls: 1, TimeMicros: 180},
		"compute_forces":   {Calls: 20, TimeMicros: 2703},
		"update_positions": {Calls: 20, TimeMicros: 902},
		"write_output":     {Calls: 1, TimeMicros: 236},
	},
	"ties by name": {
		"main": {Calls: 1, TimeMicros: 300},
		"zeta": {Calls: 3, TimeMicros: 100},
		"alfa": {Calls: 2, TimeMicros: 100},
		"mike": {Calls: 1, TimeMicros: 100},
	},
	"zero total time": {
		"main": {Calls: 1},
		"f":    {Calls: 7},
	},
	"long names": {
		"main":                                  {Calls: 1, TimeMicros: 10},
		"exactly_twenty_four_byte":              {Calls: 1, TimeMicros: 3},
		"twenty_five_bytes_exactly":             {Calls: 2, TimeMicros: 2},
		"a_function_name_far_beyond_the_column": {Calls: 3, TimeMicros: 1},
		"fonction_déjà_vue":                     {Calls: 4, TimeMicros: 4}, // 17 runes, 19 bytes
	},
	"shares that round to 100.0": {
		"main": {Calls: 1, TimeMicros: 99999},
		"tiny": {Calls: 1, TimeMicros: 1},
	},
	"wide numbers": {
		"main": {Calls: 12345678901, TimeMicros: 1234567890123},
		"f":    {Calls: 9999999999, TimeMicros: 999999999999},
		"g":    {Calls: 0, TimeMicros: 5},
	},
	"half-way bottleneck": {
		"main": {Calls: 1, TimeMicros: 1000},
		"f":    {Calls: 1, TimeMicros: 25},
		"g":    {Calls: 1, TimeMicros: 15},
	},
}

// TestAppendTableMatchesFmt: the table and a daemon's whole profile are
// the bytes the fmt version printed.
func TestAppendTableMatchesFmt(t *testing.T) {
	exits := []procsim.ExitStatus{{Code: 0}, {Code: 3}, {Signal: "SIGKILL"}}
	for name, stats := range tableCases {
		if got, want := FormatTable(stats), fmtTable(stats); got != want {
			t.Errorf("%s: FormatTable\n%s\nwant\n%s", name, got, want)
		}
		if got, want := string(AppendTable([]byte("kept|"), stats)), "kept|"+fmtTable(stats); got != want {
			t.Errorf("%s: AppendTable onto a prefix\n%q\nwant\n%q", name, got, want)
		}
		for i, exit := range exits {
			got := string(appendProfile(nil, "node7", i, exit, stats))
			if want := fmtProfile("node7", i, exit, stats); got != want {
				t.Errorf("%s, %s: profile\n%s\nwant\n%s", name, exit, got, want)
			}
		}
	}
}

// TestProfileGolden pins one profile's text outright, header and
// bottleneck line included.
func TestProfileGolden(t *testing.T) {
	got := string(appendProfile(nil, "node7", 2, procsim.ExitStatus{}, tableCases["ties by name"]))
	want := "paradynd node7 rank 2: exit(0)\n" +
		"FUNCTION                      CALLS     TIME(us)   SHARE\n" +
		"main                              1          300   50.0%\n" +
		"alfa                              2          100   16.7%\n" +
		"mike                              1          100   16.7%\n" +
		"zeta                              3          100   16.7%\n" +
		"bottleneck: alfa (33%)\n"
	if got != want {
		t.Errorf("profile\n%s\nwant\n%s", got, want)
	}
}

// TestProfileIsOneBuffer: a profile appended into a buffer of the
// daemon's size costs the row slice and the exit text, nothing per row.
func TestProfileIsOneBuffer(t *testing.T) {
	stats := tableCases["science app"]
	buf := make([]byte, 0, tableSize(stats)+128)
	n := testing.AllocsPerRun(100, func() {
		if b := appendProfile(buf, "node7", 0, procsim.ExitStatus{Code: 1}, stats); cap(b) != cap(buf) {
			t.Fatalf("profile of %d bytes outgrew its %d-byte buffer", len(b), cap(buf))
		}
	})
	if n > 2 {
		t.Errorf("appendProfile allocates %.1f objects, want at most 2", n)
	}
}
