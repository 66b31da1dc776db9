// Command anthill-serve is the live-observability demo: it runs the
// open-system serving pipeline (arrivals -> admission-controlled gateway ->
// DDFCFS/DDWRR/ODDS policies -> heterogeneous CPU/GPU pools) against the
// host's wall clock at a configurable time-dilation factor, and exposes the
// simulation's state while it runs:
//
//	/            embedded HTML dashboard rendering the SSE stream
//	/healthz     liveness + current virtual time
//	/metrics     Prometheus text exposition (obs registry + serving families)
//	/stream      SSE frames: windowed p50/p99/p999, queue depths, sheds,
//	             per-policy throughput, worst SLO violator with span lineage
//	/events.jsonl bounded ring of shed / SLO-violation events
//	/debug/pprof  standard Go profiling endpoints
//
// Example:
//
//	anthill-serve -arrivals 'poisson:rate=4000,n=2000' -dilation 100x
//
// runs ~0.5 s of virtual traffic stretched over ~50 s of wall time. The
// simulation itself stays a pure function of (seed, schedule, policies);
// dilation only chooses how fast the outside world watches it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/arrival"
	"repro/internal/serve"
	"repro/internal/sim"
)

//go:embed dashboard.html
var dashboardHTML []byte

// parseDilation accepts "100" or "100x": virtual time runs that many times
// slower than wall time.
func parseDilation(s string) (float64, error) {
	d, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "x"), 64)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad -dilation %q: want a positive factor like 100 or 100x", s)
	}
	return d, nil
}

// checkInterval rejects a -tick-ms or -frame-ms value that is not a finite
// positive number of milliseconds: a zero tick stalls the pacer, and a zero
// frame interval spins every /stream client.
func checkInterval(flagName string, ms float64) error {
	if !(ms > 0) || math.IsInf(ms, 1) {
		return fmt.Errorf("bad -%s %g: want a finite positive number of milliseconds", flagName, ms)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "anthill-serve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		arrivals = flag.String("arrivals", "poisson:rate=4000,n=2000",
			"arrival schedule spec (poisson:rate=R,n=N | uniform:... | burst:...,peak=P,period=S | trace:at=t1/t2/...; ';'-separated)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		policies = flag.String("policies", strings.Join(serve.PolicyNames, ","),
			"comma-separated stream policies to race")
		dilation = flag.String("dilation", "100x",
			"time dilation: virtual time runs N times slower than wall time")
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		windowMS   = flag.Float64("window-ms", 25, "sliding percentile window width, virtual ms")
		windows    = flag.Int("windows", 8, "number of sliding windows")
		sloMS      = flag.Float64("slo-ms", 5, "end-to-end latency SLO, virtual ms")
		queueLimit = flag.Int("queue-limit", 32, "gateway admission queue limit")
		eventCap   = flag.Int("event-cap", 4096, "bounded event ring capacity")
		tickMS     = flag.Float64("tick-ms", 50, "wall-clock pacing tick, ms")
		frameMS    = flag.Float64("frame-ms", 500, "SSE frame interval, wall ms")
	)
	flag.Parse()

	dil, err := parseDilation(*dilation)
	if err != nil {
		return err
	}
	if err := checkInterval("tick-ms", *tickMS); err != nil {
		return err
	}
	if err := checkInterval("frame-ms", *frameMS); err != nil {
		return err
	}
	sched, err := arrival.Parse(*arrivals)
	if err != nil {
		return err
	}
	times := sched.Times(*seed)
	engine, err := serve.New(serve.Config{
		Seed:       *seed,
		Policies:   strings.Split(*policies, ","),
		Times:      times,
		SLO:        sim.Time(*sloMS) * sim.Millisecond,
		QueueLimit: *queueLimit,
		Window:     sim.Time(*windowMS) * sim.Millisecond,
		Windows:    *windows,
		EventCap:   *eventCap,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("anthill-serve: listening on http://%s\n", ln.Addr())
	fmt.Printf("anthill-serve: %d arrivals (%s), dilation %gx, policies %s, SLO %g ms\n",
		len(times), sched, dil, *policies, *sloMS)

	// shutdown fires on SIGINT/SIGTERM; the pacer and every SSE stream
	// watch it so the server can drain promptly and exit 0.
	shutdown := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	go func() {
		tick := sim.Time(*tickMS) * sim.Millisecond
		err := engine.Pace(sim.NewWallClock(), dil, tick, func(f serve.Frame) bool {
			select {
			case <-shutdown:
				return false
			default:
				return true
			}
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "anthill-serve: simulation failed: %v\n", err)
			return
		}
		if done, _ := engine.Done(); done {
			f := engine.Frame()
			fmt.Printf("anthill-serve: simulation drained at virtual %.3f s; endpoints stay up for inspection\n", f.VirtualS)
		}
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		done, runErr := engine.Done()
		w.Header().Set("Content-Type", "application/json")
		body := map[string]any{"ok": runErr == nil, "virtual_s": float64(engine.Now()), "done": done}
		if runErr != nil {
			body["error"] = runErr.Error()
		}
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := engine.WritePromText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events.jsonl", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := engine.EventsJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		interval := time.Duration(*frameMS * float64(time.Millisecond))
		for {
			b, err := json.Marshal(engine.Frame())
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
			select {
			case <-r.Context().Done():
				return
			case <-shutdown:
				return
			case <-time.After(interval):
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	server := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("anthill-serve: %v, shutting down\n", sig)
		close(shutdown)
		if err := server.Close(); err != nil {
			return err
		}
		<-serveErr // always http.ErrServerClosed after Close
		return nil
	case err := <-serveErr:
		return err
	}
}
