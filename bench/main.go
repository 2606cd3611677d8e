// Command bench is the repository's benchmark: one harness for the
// build path (world → relying party → IRR index → propagation →
// hegemony → archive) and the query path (client → gateway → replica →
// cache/handler → encode). See README.md in this directory and
// BENCHMARK.json at the repository root.
//
// Usage (from anywhere inside the module):
//
//	go run ./bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//
// Without --workload every workload runs in turn. Each run prints its
// metrics with quartiles and sample counts, then one JSON result line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// run is what one workload invocation gets: its inputs and a scratch
// directory inside the checkout that is removed when the run ends.
type run struct {
	workload string
	seed     int64
	seconds  float64
	// tr is nil on end-to-end runs: spans are off.
	tr *tracer
	// root is the module root; dir the run's scratch directory.
	root, dir string
	// clients is the load generator's connection (and build worker)
	// count: one per CPU, capped at 4.
	clients int
}

// result is what a workload hands back. Each check of the program's
// outputs counts once in attempted and, when wrong, once in failed.
type result struct {
	e2e, layer        map[string]float64
	attempted, failed int
	// notes are human-readable lines (quartiles, sample counts).
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) note(name string, s summary, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-28s median %.6g %s  (q1 %.6g, q3 %.6g, n=%d)", name, s.Median, unit, s.Q1, s.Q3, s.N))
}

var runners = map[string]func(context.Context, *run) (*result, error){
	wTopology: runBuild,
	wWeekly:   runBuild,
	wDirect:   runQuery,
	wGateway:  runQuery,
	wScan:     runQuery,
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, one after the other)")
	seed := flag.Int64("seed", 1, "seeds the generated world and the request stream")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the separate traced run: per-layer metrics, spans written to bench/out/")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run; every exit path below unwinds
	// through the defers that stop daemons and remove scratch dirs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runAll(ctx, *workload, *seed, *seconds, *trace != 0)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runAll(ctx context.Context, workload string, seed int64, seconds float64, traced bool) error {
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	for _, name := range names {
		runner, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(outDir, "run-")
		if err != nil {
			return err
		}
		r := &run{workload: name, seed: seed, seconds: seconds, root: root, dir: dir, clients: min(runtime.NumCPU(), 4)}
		if traced {
			r.tr = newTracer()
		}
		res, err := runner(ctx, r)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := r.tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return err
		}
		if err := report(name, traced, res); err != nil {
			return err
		}
	}
	return nil
}

// report prints the notes and metrics, then the result line the driver
// reads: the last line of standard output.
func report(workload string, traced bool, res *result) error {
	specs, values := endToEnd, res.e2e
	if traced {
		specs, values = perLayer, res.layer
	}
	metrics, err := declared(workload, specs, values)
	if err != nil {
		return err
	}
	if res.attempted < 1 {
		return errors.New("no output was checked")
	}
	fmt.Printf("== %s (traced=%v)\n", workload, traced)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// moduleRoot asks the go tool where the module lives, so the harness
// works from any directory inside it and fails outside a checkout.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("locate module root: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
