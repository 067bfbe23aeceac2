// Command dramserved runs the DRAM power model as a long-lived HTTP
// service: descriptors and traces go in, JSON power/energy accounting
// comes out, with a model cache so repeated evaluations of the same
// device skip the build, a bounded admission queue so overload degrades
// into 429s instead of memory growth, and Prometheus metrics built in.
//
// Usage:
//
//	dramserved                         # serve on 127.0.0.1:8457
//	dramserved -addr :0                # any free port (printed on stdout)
//	dramserved -max-inflight 8 -queue-wait 100ms -timeout 30s
//
// Endpoints: POST /v1/evaluate, /v1/sweep, /v1/schemes, /v1/trace;
// GET /v1/roadmap, /metrics, /healthz, /readyz. See the README "Serving"
// section for a worked curl session.
//
// On SIGINT/SIGTERM the server stops accepting work, /readyz flips to
// 503, in-flight requests drain (up to -drain), and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drampower/internal/cli"
	"drampower/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run runs dramserved on args until ctx is done, then drains; it returns
// the exit status.
func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dramserved", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8457", "listen address (host:port; port 0 picks a free port)")
	cacheSize := fs.Int("cache", 128, "model cache capacity (entries)")
	maxInflight := fs.Int("max-inflight", 64, "maximum concurrently executing /v1/* requests")
	queueWait := fs.Duration("queue-wait", 2*time.Second, "how long an over-limit request waits for a slot before 429")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain limit")
	maxBody := fs.Int64("max-body", 1<<20, "descriptor request body limit (bytes)")
	maxTrace := fs.Int64("max-trace", 256<<20, "trace upload limit (bytes)")
	var workers int
	cli.WorkersVar(fs, &workers, "each request's batch evaluations")
	quiet := fs.Bool("quiet", false, "disable the JSON access log on stderr")
	calib := cli.OverlayVar(fs)
	return cli.Run(fs, args, stderr, func() error {
		opts := server.Options{
			CacheSize:          *cacheSize,
			MaxInflight:        *maxInflight,
			QueueWait:          *queueWait,
			RequestTimeout:     *timeout,
			MaxDescriptorBytes: *maxBody,
			MaxTraceBytes:      *maxTrace,
			Workers:            workers,
		}
		// A -calib overlay becomes the server-wide default calibration,
		// applied to any model a request does not calibrate itself.
		var err error
		if opts.Calibration, err = cli.LoadOverlay(*calib); err != nil {
			return err
		}
		if !*quiet {
			opts.AccessLog = stderr
		}
		s := server.New(opts)
		defer s.Close()

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// The resolved address on stdout is the service's one line of
		// plain-text output; tooling (make serve-smoke) parses it to find
		// a randomly assigned port.
		fmt.Fprintf(stdout, "dramserved listening on %s\n", ln.Addr())
		return s.Serve(ctx, ln, *drain)
	})
}
