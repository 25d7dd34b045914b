// Command dynactl is the client for dynatuned nodes. Data commands
// (get/put/del/ping/bench) speak the pipelined binary protocol
// (internal/wireclient) to the nodes' -bin addresses, following
// in-protocol leader hints; status reads each node's admin /status page
// from its -http address.
//
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 put color blue
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 get color
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 -consistency linearizable get color
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 bench -n 1000
//	dynactl -endpoints 127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103 status
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dynatune/internal/metrics"
	"dynatune/internal/wireclient"
)

const usageText = `usage: dynactl [-endpoints host:port,...] [-timeout d] [-consistency local|lease|linearizable] <command>

data commands; endpoints are every member's binary API address (dynatuned -bin)
in node-ID order, or one BinFront address:
  get <key> | put <key> <value> | del <key> | ping | bench [-n N]

admin command; endpoints are admin HTTP addresses (dynatuned -http):
  status`

// errUsage marks a bad invocation: run prints the usage and exits 2.
var errUsage = errors.New("bad usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns its exit code: 0 on success,
// 1 when the command fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynactl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usageText) }
	endpoints := fs.String("endpoints", "127.0.0.1:9101", "comma-separated node addresses: binary API for data commands, admin HTTP for status")
	timeout := fs.Duration("timeout", 5*time.Second, "dial timeout for data commands, request timeout for status")
	consistency := fs.String("consistency", "local", "get consistency: local | lease | linearizable")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := dispatch(strings.Split(*endpoints, ","), *timeout, *consistency, fs.Args(), stdout)
	if errors.Is(err, errUsage) {
		if err != errUsage {
			fmt.Fprintln(stderr, "dynactl:", err)
		}
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dynactl:", err)
		return 1
	}
	return 0
}

func dispatch(eps []string, timeout time.Duration, consistency string, args []string, out io.Writer) error {
	flags, err := readFlags(consistency)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return errUsage
	}
	if args[0] == "status" {
		if len(args) != 1 {
			return errUsage
		}
		return status(&http.Client{Timeout: timeout}, eps, out)
	}
	c := &client{
		gc:    wireclient.NewGroupClient(eps, wireclient.PoolConfig{Size: 1, DialTimeout: timeout}),
		out:   out,
		flags: flags,
	}
	defer c.gc.Close()
	switch {
	case args[0] == "get" && len(args) == 2:
		return c.get(args[1])
	case args[0] == "put" && len(args) == 3:
		return c.write(&wireclient.Request{Op: wireclient.OpPut, Key: args[1], Value: []byte(args[2])})
	case args[0] == "del" && len(args) == 2:
		return c.write(&wireclient.Request{Op: wireclient.OpDelete, Key: args[1]})
	case args[0] == "ping" && len(args) == 1:
		return c.ping()
	case args[0] == "bench":
		bfs := flag.NewFlagSet("bench", flag.ContinueOnError)
		bfs.SetOutput(io.Discard)
		n := bfs.Int("n", 100, "number of sequential puts")
		if bfs.Parse(args[1:]) != nil || bfs.NArg() != 0 {
			return errUsage
		}
		return c.bench(*n)
	}
	return errUsage
}

// readFlags maps -consistency onto an OpGet's request flags.
func readFlags(consistency string) (uint8, error) {
	switch consistency {
	case "local":
		return wireclient.FlagLocal, nil
	case "lease":
		return 0, nil
	case "linearizable":
		return wireclient.FlagReadIndex, nil
	}
	return 0, fmt.Errorf("%w: -consistency %q (want local, lease or linearizable)", errUsage, consistency)
}

// client runs the data commands over one leader-following group client.
type client struct {
	gc    *wireclient.GroupClient
	out   io.Writer
	flags uint8 // OpGet consistency flags
}

// call issues r and turns every status but OK into an error.
func (c *client) call(r *wireclient.Request) (wireclient.Response, error) {
	resp, err := c.gc.Call(r)
	if err != nil {
		return resp, err
	}
	switch resp.Status {
	case wireclient.StatusOK:
		return resp, nil
	case wireclient.StatusNotFound:
		return resp, errors.New("key not found")
	default:
		return resp, fmt.Errorf("%s: %s", resp.Status, resp.Err)
	}
}

func (c *client) get(key string) error {
	resp, err := c.call(&wireclient.Request{Op: wireclient.OpGet, Flags: c.flags, Key: key})
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, string(resp.Value))
	return nil
}

func (c *client) write(r *wireclient.Request) error {
	if _, err := c.call(r); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "OK")
	return nil
}

func (c *client) ping() error {
	t0 := time.Now()
	if _, err := c.call(&wireclient.Request{Op: wireclient.OpPing}); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "OK %.3fms\n", float64(time.Since(t0).Microseconds())/1000)
	return nil
}

// bench measures sequential put latency — a tiny real-network cousin of
// the Fig. 5 harness.
func (c *client) bench(n int) error {
	lats := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.call(&wireclient.Request{Op: wireclient.OpPut, Key: fmt.Sprintf("bench-%d", i), Value: []byte("v")}); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
		lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
	}
	elapsed := time.Since(start)
	sort.Float64s(lats)
	s := metrics.Summarize(lats)
	fmt.Fprintf(c.out, "%d puts in %v (%.0f req/s)\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Fprintf(c.out, "latency ms: mean %.2f  p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", s.Mean, s.P50, s.P90, s.P99, s.Max)
	return nil
}

// status prints every endpoint's admin /status JSON; it fails only when
// none answers.
func status(hc *http.Client, eps []string, out io.Writer) error {
	ok := 0
	for _, ep := range eps {
		resp, err := hc.Get("http://" + ep + "/status")
		if err != nil {
			fmt.Fprintf(out, "%-22s unreachable: %v\n", ep, err)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Fprintf(out, "%-22s %s\n", ep, strings.TrimSpace(string(data)))
		ok++
	}
	if ok == 0 {
		return errors.New("no endpoints reachable")
	}
	return nil
}
