// Command liteview starts an interactive LiteView management session on
// a simulated sensor network testbed.
//
// The deployment is built from flags, LiteView is installed on every
// node, and a LiteOS-style shell reads commands from stdin (lines
// starting with # are comments, so a script file can be piped in):
//
//	liteview -topo line -nodes 9 -spacing 20
//	$ cd 192.168.0.1
//	$ ping 192.168.0.2 round=1 length=32
//	$ traceroute 192.168.0.9 round=1 length=32 port=10
//
// Use -c to run a semicolon-separated script instead of the REPL, and
// -trace FILE to record the whole session, warm-up included, through the
// telemetry recorder into that file as it runs. The extension picks the
// format: .csv the packet trace, .jsonl the event stream, .json a
// Chrome trace (chrome://tracing or ui.perfetto.dev).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"liteview/internal/cli"
	"liteview/internal/telemetry"
)

// exporters maps a -trace file extension to the format written there.
var exporters = map[string]func(io.Writer) (telemetry.Sink, func() error){
	".csv":   telemetry.NewTraceCSV,
	".jsonl": telemetry.NewJSONL,
	".json":  telemetry.NewChromeTrace,
}

func main() { os.Exit(run()) }

// run is the whole session; it returns the exit code, so deferred work
// (finishing the -trace file) happens on every exit path, an interrupt or
// SIGTERM between commands included.
func run() (code int) {
	var dep cli.DeploymentFlags
	dep.Register(flag.CommandLine)
	var (
		script  = flag.String("c", "", "run these semicolon-separated commands and exit")
		traceTo = flag.String("trace", "", "record the session to this .csv, .jsonl or .json file")
	)
	flag.Parse()
	export := exporters[filepath.Ext(*traceTo)]
	if *traceTo != "" && export == nil {
		fmt.Fprintf(os.Stderr, "liteview: -trace %s: the extension must be .csv, .jsonl or .json\n", *traceTo)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "liteview:", err)
		return 1
	}
	tb, err := dep.BuildManaged()
	if err != nil {
		return fail(err)
	}
	if export != nil {
		f, err := os.Create(*traceTo)
		if err != nil {
			return fail(err)
		}
		// The trace streams into the file; `trace off` in the shell
		// pauses it, and the exit finishes it.
		sink, finish := export(f)
		rec := tb.Telemetry()
		rec.AddSink(sink)
		rec.Start()
		defer func() {
			if err := errors.Join(finish(), f.Close()); err != nil {
				code = fail(err)
			}
		}()
	}
	// A signal ends the session at the next command; a second one, while
	// the trace is finished, kills the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Printf("LiteView: %d nodes (%s), warming up %v of virtual time...\n", len(tb.Nodes), dep.Topo, dep.Warmup)
	sh, err := dep.Session(tb, os.Stdout)
	if err != nil {
		return fail(err)
	}
	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			if line = strings.TrimSpace(line); line == "" {
				continue
			}
			if len(sigs) > 0 {
				return fail(fmt.Errorf("%v", <-sigs))
			}
			fmt.Printf("%s$ %s\n", sh.Cwd(), line)
			if err := sh.Exec(line); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
		return 0
	}
	fmt.Println("Ready. Type 'help' for commands, 'exit' to quit.")
	lines := make(chan string)
	go func() {
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			lines <- in.Text()
		}
		close(lines)
	}()
	for {
		fmt.Printf("%s$ ", sh.Cwd())
		select {
		case s := <-sigs:
			fmt.Println()
			return fail(fmt.Errorf("%v", s))
		case line, ok := <-lines:
			if !ok {
				fmt.Println()
				return 0
			}
			if line == "exit" || line == "quit" {
				return 0
			}
			if err := sh.Exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}
