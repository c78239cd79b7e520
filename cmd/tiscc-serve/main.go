// Command tiscc-serve runs the estimator service: an HTTP server that
// compiles (workload, distance, rounds, noise) requests into cached
// artifacts and answers POST /v1/estimate with deterministic logical-error
// estimates, plus /metrics (Prometheus text format) and /healthz.
//
//	tiscc-serve -addr :8723 -cache-mb 64
//
// Identical requests produce byte-identical response bodies whether they
// compile or hit the cache; the disposition is reported in the
// X-Tiscc-Cache header and the server log only, and the host's fault-draw
// kernel ("avx512" or "portable") in the X-Tiscc-Draw-Kernel header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tiscc/internal/serve"
)

func usageErr(msg string) {
	fmt.Fprintf(os.Stderr, "tiscc-serve: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8723", "listen address (host:port)")
	cacheMB := flag.Int("cache-mb", 64, "artifact cache budget in MiB (>= 1)")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	if *cacheMB < 1 {
		usageErr(fmt.Sprintf("-cache-mb must be at least 1, got %d", *cacheMB))
	}
	if _, _, err := net.SplitHostPort(*addr); err != nil {
		usageErr(fmt.Sprintf("invalid -addr %q: %v", *addr, err))
	}

	logger := log.New(os.Stderr, "tiscc-serve: ", log.LstdFlags)
	srv := serve.NewServer(serve.Config{
		CacheBytes: *cacheMB << 20,
		Logf:       logger.Printf,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen %s: %v", *addr, err)
		os.Exit(1)
	}
	logger.Printf("serving on %s (cache budget %d MiB)", ln.Addr(), *cacheMB)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Printf("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
		os.Exit(1)
	}
	<-done
}
