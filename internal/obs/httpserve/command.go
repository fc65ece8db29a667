package httpserve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"frac/internal/obs"
)

// Command is the front end frac, fracbench, fracgen and fracserve run
// around their own work: the positional-argument check, the telemetry
// session and its run manifest, the debug server, the SIGINT/SIGTERM
// context, the close order and the exit code. A command defines its flags
// on flag.CommandLine, then calls Parse and Run.
type Command struct {
	// Tool names the command in its messages, its -version line and its
	// manifest.
	Tool string
	// Arg names the one positional argument the command takes, and
	// ArgDefault stands in for it when absent; a command with an empty Arg
	// takes none. The config hash covers the argument under the key "cmd".
	Arg, ArgDefault string
	// Unhashed names the command's file and printing flags. The config hash
	// covers every other flag except the telemetry flags, so a new flag is
	// hashed unless its command names it here.
	Unhashed []string
	// Metrics, when non-nil, supplies the command's own metric families to
	// the debug server's /metrics (Options.Extra).
	Metrics func() []obs.MetricFamily

	tele obs.CLIFlags
	arg  string
}

// Parse registers the telemetry flags and parses the command line, and
// returns the positional argument (ArgDefault when absent). Flag parsing
// stops at the first argument that is not a flag, so a flag after a stray
// argument would be dropped without a word: a positional argument the
// command does not take exits 2, naming it.
func (c *Command) Parse() string {
	c.tele.Register(flag.CommandLine)
	flag.Parse()
	c.arg = c.ArgDefault
	switch {
	case c.Arg == "" && flag.NArg() > 0:
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q: %[1]s takes no arguments, and flags after one would be ignored\n", c.Tool, flag.Arg(0))
		os.Exit(2)
	case flag.NArg() > 1:
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q after the %s %q: %[1]s takes one %[3]s, after its flags\n", c.Tool, flag.Arg(1), c.Arg, flag.Arg(0))
		os.Exit(2)
	case flag.NArg() == 1:
		c.arg = flag.Arg(0)
	}
	return c.arg
}

// Run starts the telemetry session, completes its manifest with variant,
// seed and the config hash, starts the debug server and runs work under a
// context that SIGINT or SIGTERM cancels: in-flight work finishes, no new
// work starts. It then closes the debug server and the session, so the
// metrics file, journal and traces are complete even after a failed or
// canceled run (a canceled run's documents carry "cancelled": true).
//
// Run returns only when work succeeded. -version prints the build and exits
// 0, a canceled run exits 130 with "<tool>: canceled", and any other error
// exits 1 with "<tool>: <error>".
func (c *Command) Run(variant string, seed uint64, work func(ctx context.Context, s *obs.Session) error) {
	sess, err := c.tele.Start(c.Tool, os.Stderr)
	if err != nil {
		c.exit(err)
	}
	if sess == nil { // -version
		os.Exit(0)
	}
	sess.Manifest.Variant, sess.Manifest.Seed, sess.Manifest.ConfigHash = variant, seed, c.configHash()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := Start(c.tele.DebugAddr, Options{Recorder: sess.Rec, Manifest: sess.Manifest, Extra: c.Metrics})
	if err == nil {
		err = work(ctx, sess)
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if cerr := sess.Close(err); err == nil {
		err = cerr
	}
	if err != nil {
		c.exit(err)
	}
}

func (c *Command) exit(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: canceled\n", c.Tool)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Tool, err)
	os.Exit(1)
}

// configHash digests every flag's value, keyed by the flag's name, except
// the telemetry flags and the Unhashed ones, plus the positional argument
// under "cmd". Two result files are comparable iff their hashes match.
func (c *Command) configHash() string {
	var tele flag.FlagSet
	new(obs.CLIFlags).Register(&tele)
	kv := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if tele.Lookup(f.Name) == nil && !slices.Contains(c.Unhashed, f.Name) {
			kv[f.Name] = f.Value.String()
		}
	})
	if c.Arg != "" {
		kv["cmd"] = c.arg
	}
	return obs.ConfigHash(kv)
}
