// Command prophetd is the prediction service daemon: it loads the
// registered workload profiles once (profiling + memory-model
// calibration) and serves speedup predictions over HTTP — the paper's
// per-run tool (cmd/prophet) turned into a long-lived service, so the
// profiles, the calibrated model and the estimate cache survive across
// requests.
//
// Usage:
//
//	prophetd [-addr :8057] [-bench all | MD-OMP,NPB-FT] [-cores 2,4,6,8,10,12]
//	         [-workers N] [-max-inflight M] [-cache 4096] [-no-mem]
//	         [-request-timeout 30s] [-drain 15s]
//	         [-surrogate [-surrogate-maxerr 0.05] [-surrogate-seed N]]
//	prophetd -cluster -peers http://h1:8057,http://h2:8057 [-self URL]
//	         [-replicas 2] [-hedge-after 30ms] [-retries 1]
//	         [-probe-interval 1s] [-breaker-failures 3] [-breaker-cooldown 2s]
//	prophetd loadgen [-addr http://127.0.0.1:8057 | -addrs URL,URL,...]   (see loadgen.go)
//
// Endpoints:
//
//	POST /v1/predict   one prophet.Request against a workload
//	POST /v1/sweep     a cores × paradigm × sched grid (Fig. 11/12 shape)
//	POST /v1/advise    the causal advisor: config sweep + per-region
//	                   what-if experiments, ranked by marginal speedup
//	                   (byte-identical to prophet -advise)
//	GET  /v1/workloads registered workloads
//	POST /v1/workloads?name=N upload a pprof or folded-stacks profile
//	                   and register it as a servable workload
//	GET  /v1/machines  machine presets    POST /v1/machines  register a
//	                   custom machine spec (JSON MachineSpec body)
//	GET  /healthz      liveness       GET /readyz  profiles loaded
//	GET  /metrics      JSON snapshot of the obs registry
//
// Overload returns 429 with Retry-After; SIGINT/SIGTERM drain in-flight
// predictions for up to -drain before exiting.
//
// Exit codes: 0 clean shutdown; 1 load/serve failure; 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"prophet"
	"prophet/internal/cluster"
	"prophet/internal/server"
	"prophet/internal/workloads"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("prophetd: ")
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		os.Exit(loadgenMain(os.Args[2:]))
	}
	os.Exit(serveMain(os.Args[1:]))
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("prophetd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8057", "listen address")
		bench       = fs.String("bench", "all", `comma-separated workloads to register ("all" = every benchmark)`)
		coresFlag   = fs.String("cores", "", "comma-separated thread counts to calibrate for (default 2,4,6,8,10,12)")
		workers     = fs.Int("workers", 0, "worker slots: the bound on concurrently emulated cells (0 = GOMAXPROCS)")
		maxInflight = fs.Int("max-inflight", 0, "admitted-request limit before 429 (0 = 4×GOMAXPROCS)")
		cacheSize   = fs.Int("cache", 4096, "estimate LRU capacity (negative disables)")
		noMem       = fs.Bool("no-mem", false, "skip memory-model calibration (every estimate behaves as memory_model:false)")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request deadline cap (negative = none)")
		drain       = fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		maxImport   = fs.Int64("max-import-bytes", 8<<20, "profile-upload size cap for POST /v1/workloads (negative disables uploads)")

		surrogate       = fs.Bool("surrogate", false, "arm the learned surrogate on every workload profile (answers before the worker slots, on the owning replica in a cluster)")
		surrogateMaxErr = fs.Float64("surrogate-maxerr", 0.05, "max cross-validated relative error a surrogate answer may carry")
		surrogateSeed   = fs.Int64("surrogate-seed", 0, "seed for the surrogate's deterministic reservoir sampling")

		clusterMode    = fs.Bool("cluster", false, "serve as one replica of a fleet: route cells by consistent hash across -peers")
		peersFlag      = fs.String("peers", "", "comma-separated base URLs of every replica (this one is added if missing)")
		selfFlag       = fs.String("self", "", "this replica's advertised base URL (default http://127.0.0.1<-addr port>)")
		replicas       = fs.Int("replicas", 2, "ring owners per cell: the primary plus failover/hedge targets")
		hedgeAfter     = fs.Duration("hedge-after", 30*time.Millisecond, "latency budget before a forwarded cell is hedged to the next owner (negative disables)")
		clusterRetries = fs.Int("retries", 1, "transient-failure retries per peer before failing over (negative disables)")
		probeInterval  = fs.Duration("probe-interval", time.Second, "peer health-probe period feeding the circuit breakers (negative disables)")
		breakerFails   = fs.Int("breaker-failures", 3, "consecutive failures that open a peer's circuit")
		breakerCool    = fs.Duration("breaker-cooldown", 2*time.Second, "open-circuit wait before a half-open trial")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := server.Config{
		Workers:            *workers,
		MaxInFlight:        *maxInflight,
		CacheSize:          *cacheSize,
		DisableMemoryModel: *noMem,
		RequestTimeout:     *reqTimeout,
		MaxImportBytes:     *maxImport,
	}
	if *bench != "all" && *bench != "" {
		for _, b := range strings.Split(*bench, ",") {
			name := strings.TrimSpace(b)
			if _, err := workloads.ByName(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			cfg.Workloads = append(cfg.Workloads, name)
		}
	}
	if *coresFlag != "" {
		cores, err := prophet.ParseCores(*coresFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cfg.Cores = cores
	}
	if *surrogate {
		if *surrogateMaxErr <= 0 || *surrogateMaxErr >= 1 {
			fmt.Fprintf(os.Stderr, "prophetd: -surrogate-maxerr must be in (0, 1), got %v\n", *surrogateMaxErr)
			return 2
		}
		cfg.Surrogate = &prophet.SurrogateConfig{
			MaxRelErr: *surrogateMaxErr,
			Seed:      *surrogateSeed,
		}
		log.Printf("surrogate armed: confidence bound %.1f%% rel error", *surrogateMaxErr*100)
	}
	if *clusterMode {
		self := *selfFlag
		if self == "" {
			// Advertise the listen port on loopback — the single-machine
			// fleet default; multi-host fleets must pass -self.
			_, port, err := net.SplitHostPort(*addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prophetd: -cluster needs -self when -addr (%q) has no port\n", *addr)
				return 2
			}
			self = "http://127.0.0.1:" + port
		}
		self = cluster.NormalizeAddr(self)
		peers := []string{}
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, cluster.NormalizeAddr(p))
			}
		}
		hasSelf := false
		for _, p := range peers {
			hasSelf = hasSelf || p == self
		}
		if !hasSelf {
			peers = append(peers, self)
		}
		if len(peers) < 2 {
			fmt.Fprintln(os.Stderr, "prophetd: -cluster needs at least one other replica in -peers")
			return 2
		}
		cfg.Cluster = &cluster.Config{
			Self:            self,
			Peers:           peers,
			OwnersPerCell:   *replicas,
			HedgeAfter:      *hedgeAfter,
			Retries:         *clusterRetries,
			ProbeInterval:   *probeInterval,
			BreakerFailures: *breakerFails,
			BreakerCooldown: *breakerCool,
		}
		log.Printf("cluster mode: self=%s fleet=%v owners/cell=%d", self, peers, *replicas)
	}

	srv := server.New(cfg)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	loadCtx, cancelLoad := context.WithCancel(context.Background())
	var sigDuringLoad atomic.Bool
	go func() {
		// A signal during the load aborts it through the library's
		// cancellation paths instead of waiting out the calibration.
		select {
		case <-stop:
			sigDuringLoad.Store(true)
			cancelLoad()
		case <-loadCtx.Done():
		}
	}()

	start := time.Now()
	log.Printf("loading workload profiles...")
	if err := srv.Load(loadCtx); err != nil {
		if sigDuringLoad.Load() {
			log.Printf("interrupted during load; exiting")
			return 0
		}
		log.Printf("load: %v", err)
		return 1
	}
	cancelLoad()
	log.Printf("ready in %v; serving on %s", time.Since(start).Round(time.Millisecond), *addr)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()

	// The load-phase watcher has exited; signals now land here.
	select {
	case err := <-errCh:
		if err != nil {
			log.Printf("serve: %v", err)
			return 1
		}
		return 0
	case sig := <-stop:
		log.Printf("%v: draining in-flight predictions (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v (in-flight work aborted)", err)
			return 1
		}
		log.Printf("drained cleanly")
		return 0
	}
}
