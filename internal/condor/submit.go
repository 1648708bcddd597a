// Package condor implements a functional miniature of the Condor
// high-throughput batch system (paper §4.1): submit machine daemons
// (schedd, shadow), execute machine daemons (startd, starter), the
// matchmaker, ClassAd-based matchmaking, the claiming protocol, and
// the Vanilla and MPI universes — extended with the paper's TDP
// integration (§4.3): the +SuspendJobAtExec and ToolDaemon* submit
// directives, the starter's tdp_create_process(paused) launch path,
// and pid publication through the per-machine LASS.
//
// Processes execute on the procsim kernel of each simulated machine;
// attribute spaces are real LASS servers; the pool's control plane is
// in-process message passing whose protocol steps are recorded as
// telemetry.Tracer steps so Figure 4's daemon interactions can be
// asserted.
package condor

import (
	"fmt"
	"strconv"
	"strings"
)

// Universe is a Condor execution environment.
type Universe int

const (
	// UniverseVanilla runs unmodified sequential jobs.
	UniverseVanilla Universe = iota
	// UniverseMPI runs MPICH jobs across machine_count machines.
	UniverseMPI
	// UniverseStandard runs checkpointable jobs that survive vacate:
	// when the machine is reclaimed, the job's checkpoint migrates and
	// execution resumes elsewhere (§4.1 mentions checkpointing among
	// Condor's mechanisms; programs opt in via SaveCheckpoint).
	UniverseStandard
)

// String names the universe as in submit files.
func (u Universe) String() string {
	switch u {
	case UniverseVanilla:
		return "Vanilla"
	case UniverseMPI:
		return "MPI"
	case UniverseStandard:
		return "Standard"
	default:
		return fmt.Sprintf("universe(%d)", int(u))
	}
}

// ToolDaemonSpec carries the paper's ToolDaemon* submit entries: the
// description of the run-time tool the starter must launch next to the
// job (Figure 5B).
type ToolDaemonSpec struct {
	Cmd    string   // +ToolDaemonCmd: tool executable name
	Args   []string // +ToolDaemonArgs
	Output string   // +ToolDaemonOutput: file receiving tool stdout
	Error  string   // +ToolDaemonError: file receiving tool stderr
	Input  string   // +ToolDaemonInput
}

// AuxServiceSpec describes an auxiliary service the starter launches
// next to the job and tool — the paper's third entity kind (e.g. a
// multicast/reduction network node that interposes between the tool
// daemon and its front-end).
type AuxServiceSpec struct {
	Cmd  string   // +AuxServiceCmd: service name in the registry
	Args []string // +AuxServiceArgs
}

// SubmitFile is a parsed job submit description.
type SubmitFile struct {
	Universe          Universe
	Executable        string
	Arguments         []string
	Input             string
	Output            string
	Error             string
	TransferFiles     string   // "always", "never", ...
	TransferInput     []string // transfer_input_files
	MachineCount      int      // MPI universe node count
	Requirements      string   // ClassAd expression source
	Rank              string   // ClassAd expression source
	SuspendJobAtExec  bool     // +SuspendJobAtExec: create job paused
	ToolDaemon        *ToolDaemonSpec
	AuxService        *AuxServiceSpec
	Queue             int               // number of job instances
	ExtraAttrs        map[string]string // other +Attr entries
	ImageSizeKB       int64             // image_size
	UnrecognizedLines []string
}

// ParseSubmit parses a Condor submit description. It accepts the
// dialect of Figure 5B, including the paper's own typo
// ("tranfer_input_files") alongside the correct spelling.
func ParseSubmit(src string) (*SubmitFile, error) {
	sf := &SubmitFile{
		Universe:   UniverseVanilla,
		ExtraAttrs: make(map[string]string),
	}
	var td ToolDaemonSpec
	tdUsed := false
	var aux AuxServiceSpec
	auxUsed := false
	sawQueue := false

	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.EqualFold(line, "queue") {
			sf.Queue++
			sawQueue = true
			continue
		}
		if len(line) > 6 && strings.EqualFold(line[:6], "queue ") {
			n, err := strconv.Atoi(strings.TrimSpace(line[6:]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("condor: line %d: bad queue count %q", lineNo+1, line)
			}
			sf.Queue += n
			sawQueue = true
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			sf.UnrecognizedLines = append(sf.UnrecognizedLines, line)
			continue
		}
		key := strings.TrimSpace(line[:eq])
		value := strings.TrimSpace(line[eq+1:])
		value = unquote(value)

		// Keys compare by folding: lower-casing one costs a string per
		// mixed-case line (+ToolDaemonCmd, …) of every submit.
		is := func(name string) bool { return strings.EqualFold(key, name) }
		switch {
		case is("universe"):
			switch strings.ToLower(value) {
			case "vanilla":
				sf.Universe = UniverseVanilla
			case "mpi":
				sf.Universe = UniverseMPI
			case "standard":
				sf.Universe = UniverseStandard
			default:
				return nil, fmt.Errorf("condor: line %d: unsupported universe %q", lineNo+1, value)
			}
		case is("executable"):
			sf.Executable = value
		case is("arguments"):
			sf.Arguments = SplitArgs(value)
		case is("input"):
			sf.Input = value
		case is("output"):
			sf.Output = value
		case is("error"):
			sf.Error = value
		case is("transfer_files"):
			sf.TransferFiles = strings.ToLower(value)
		case is("transfer_input_files"), is("tranfer_input_files"): // paper's Figure 5B typo
			for _, f := range strings.Split(value, ",") {
				f = strings.TrimSpace(f)
				if f != "" {
					sf.TransferInput = append(sf.TransferInput, f)
				}
			}
		case is("machine_count"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("condor: line %d: bad machine_count %q", lineNo+1, value)
			}
			sf.MachineCount = n
		case is("requirements"):
			sf.Requirements = value
		case is("rank"):
			sf.Rank = value
		case is("image_size"):
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("condor: line %d: bad image_size %q", lineNo+1, value)
			}
			sf.ImageSizeKB = n
		case is("+suspendjobatexec"):
			sf.SuspendJobAtExec = parseBool(value)
		case is("+tooldaemoncmd"):
			td.Cmd = value
			tdUsed = true
		case is("+tooldaemonargs"), is("+tooldaemonarguments"):
			td.Args = SplitArgs(value)
			tdUsed = true
		case is("+tooldaemonoutput"):
			td.Output = value
			tdUsed = true
		case is("+tooldaemonerror"):
			td.Error = value
			tdUsed = true
		case is("+tooldaemoninput"):
			td.Input = value
			tdUsed = true
		case is("+auxservicecmd"):
			aux.Cmd = value
			auxUsed = true
		case is("+auxserviceargs"), is("+auxservicearguments"):
			aux.Args = SplitArgs(value)
			auxUsed = true
		default:
			if strings.HasPrefix(key, "+") {
				sf.ExtraAttrs[key[1:]] = value
			} else {
				sf.UnrecognizedLines = append(sf.UnrecognizedLines, line)
			}
		}
	}
	if tdUsed {
		sf.ToolDaemon = &td
	}
	if auxUsed {
		sf.AuxService = &aux
	}
	if !sawQueue {
		return nil, fmt.Errorf("condor: submit file has no queue statement")
	}
	if sf.Executable == "" {
		return nil, fmt.Errorf("condor: submit file has no executable")
	}
	if sf.Universe == UniverseMPI && sf.MachineCount == 0 {
		sf.MachineCount = 1
	}
	if sf.ToolDaemon != nil && sf.ToolDaemon.Cmd == "" {
		return nil, fmt.Errorf("condor: ToolDaemon entries present but no +ToolDaemonCmd")
	}
	if sf.AuxService != nil && sf.AuxService.Cmd == "" {
		return nil, fmt.Errorf("condor: AuxService entries present but no +AuxServiceCmd")
	}
	return sf, nil
}

func parseBool(v string) bool {
	return strings.EqualFold(v, "true") || strings.EqualFold(v, "yes") || v == "1"
}

func unquote(v string) string {
	if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
		return v[1 : len(v)-1]
	}
	return v
}

// SplitArgs splits an argument string on whitespace, honoring double
// quotes: `a "b c" d` → [a, b c, d].
func SplitArgs(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
