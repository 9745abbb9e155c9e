// Command dmi-tasks lists the benchmark tasks, runs individual ones
// verbosely, and is the authoring tool for task packs: it exports the
// built-in grid as a canonical pack file and validates hand-written packs
// with line-precise findings — the debugging companion to cmd/dmi-bench.
//
// Usage:
//
//	dmi-tasks -list [-taskpack FILE]
//	dmi-tasks -run ppt-background [-taskpack FILE] [-iface dmi|gui|forest] [-model medium|minimal|mini] [-runs 3]
//	dmi-tasks -export FILE   ("-" writes to stdout)
//	dmi-tasks -validate FILE
//
// -export re-emits the compiled-in osworld-w grid in the canonical pack
// encoding (the committed packs/osworld-w.json is exactly this output).
// -validate decodes and semantically checks a pack, printing every finding
// with the line the offending task sits on, and exits non-zero when any
// finding exists.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/taskpack"
)

// errUsage marks a flag-parse failure the FlagSet has already reported to
// stderr; main must not print it again.
var errUsage = errors.New("invalid usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the CLI against the given argument list and streams; main is
// a thin exit-code shim around it so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmi-tasks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list all benchmark tasks")
	runID := fs.String("run", "", "task id to run")
	export := fs.String("export", "", "write the built-in grid as a canonical task pack to this file (\"-\" = stdout)")
	validate := fs.String("validate", "", "validate a task pack file and report every finding")
	packFile := fs.String("taskpack", "", "task pack JSON for -list/-run (default: the built-in osworld-w grid)")
	iface := fs.String("iface", "dmi", "interface: dmi, gui, forest")
	model := fs.String("model", "medium", "model: medium, minimal, mini")
	runs := fs.Int("runs", 3, "seeded repetitions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage was printed, not an error
		}
		return errUsage
	}

	if *export != "" {
		return exportPack(*export, stdout, stderr)
	}
	if *validate != "" {
		return validatePack(*validate, stdout)
	}

	reg, err := bench.LoadRegistry(*packFile)
	if err != nil {
		return fmt.Errorf("dmi-tasks: %w", err)
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "id\tapp\tplan steps\tambiguity\ttraps\tdescription")
		for _, t := range reg.Tasks() {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%s\n",
				t.ID, t.App, len(t.Plan), t.Ambiguity, trapCount(t), t.Description)
		}
		return tw.Flush()
	}
	if *runID == "" {
		fmt.Fprintln(stderr, "one of -list, -run, -export, or -validate is required")
		fs.Usage()
		return errUsage // usage error: same exit class as a bad flag
	}

	task, ok := reg.ByID(*runID)
	if !ok {
		return fmt.Errorf("unknown task %q (use -list)", *runID)
	}
	cfg := agent.Config{Interface: interfaceOf(*iface), Profile: profileOf(*model)}

	fmt.Fprintln(stderr, "modeling applications…")
	models, err := agent.ModelsFor(modelstore.New(), task.App, 0)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "task %s (%s): %s\n", task.ID, task.App, task.Description)
	fmt.Fprintf(stdout, "config: %s, %s/%s, %d run(s)\n\n",
		cfg.Interface, cfg.Profile.Name, cfg.Profile.Reasoning, *runs)
	wins := 0
	for r := 0; r < *runs; r++ {
		out := agent.Run(models, task, cfg, llm.Rand("dmi-tasks", task.ID, r))
		status := "FAIL"
		if out.Success {
			status = "ok"
			wins++
		}
		fmt.Fprintf(stdout, "run %d: %-4s steps=%d (core %d, one-shot %v) time=%s tokens=%d",
			r+1, status, out.Steps, out.CoreSteps, out.OneShot,
			out.Time.Round(1e9), out.Prompt+out.Completed)
		if out.Failure != "" {
			fmt.Fprintf(stdout, " failure=%s", out.Failure)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\nsuccess rate: %d/%d\n", wins, *runs)
	return nil
}

// exportPack writes the built-in grid in the canonical pack encoding — the
// byte-exact content of the committed packs/osworld-w.json, which CI
// regenerates and diffs to keep the file honest.
func exportPack(path string, stdout, stderr io.Writer) error {
	p, err := taskpack.BuiltinPack()
	if err != nil {
		return fmt.Errorf("dmi-tasks: render built-in pack: %w", err)
	}
	data, err := p.Encode()
	if err != nil {
		return fmt.Errorf("dmi-tasks: encode pack: %w", err)
	}
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dmi-tasks: %w", err)
	}
	hash, err := p.Hash()
	if err != nil {
		return fmt.Errorf("dmi-tasks: %w", err)
	}
	fmt.Fprintf(stderr, "dmi-tasks: wrote pack %s (%d tasks, hash %.12s) to %s\n",
		p.Name, len(p.Tasks), hash, path)
	return nil
}

// validatePack reports every finding in a pack file, one per line, and
// returns an error (non-zero exit) when any exists.
func validatePack(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("dmi-tasks: %w", err)
	}
	issues := taskpack.Validate(data)
	for _, is := range issues {
		fmt.Fprintf(stdout, "%s: %s\n", path, is)
	}
	switch len(issues) {
	case 0:
		fmt.Fprintf(stdout, "%s: ok\n", path)
		return nil
	case 1:
		return fmt.Errorf("dmi-tasks: %s failed validation with 1 issue", path)
	default:
		return fmt.Errorf("dmi-tasks: %s failed validation with %d issues", path, len(issues))
	}
}

// trapCount is the number of plan steps carrying a modeled misinterpretation
// — the same predicate the pack encoder uses to decide a step has a trap.
func trapCount(t osworld.Task) int {
	n := 0
	for _, s := range t.Plan {
		if s.TrapKind != "" || s.TrapWeight != 0 || s.TrapAlt != nil {
			n++
		}
	}
	return n
}

func interfaceOf(s string) agent.Interface {
	switch s {
	case "gui":
		return agent.GUIOnly
	case "forest":
		return agent.GUIForest
	default:
		return agent.GUIDMI
	}
}

func profileOf(s string) llm.Profile {
	switch s {
	case "minimal":
		return llm.GPT5Minimal
	case "mini":
		return llm.GPT5Mini
	default:
		return llm.GPT5Medium
	}
}
