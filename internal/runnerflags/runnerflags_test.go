package runnerflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mussti/internal/dist"
)

// parse registers the runner flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-dist=0"}, "-dist wants a positive worker count"},
		{[]string{"-dist=-1"}, "-dist wants a positive worker count"},
		{[]string{"-dist=x"}, "-dist wants a positive worker count"},
		{[]string{"-dist=2", "-pipeline=-1"}, "-pipeline wants a window of at least 1"},
		{[]string{"-pipeline=4"}, "-pipeline and -launcher need -dist"},
		{[]string{"-launcher=ssh host"}, "-pipeline and -launcher need -dist"},
		{[]string{"-cachedir=d", "-cache=false"}, "-cachedir needs -cache"},
		{[]string{"-dist=2", "-cachedir=d", "-cache=false"}, "-cachedir needs -cache"},
	}
	for _, c := range cases {
		err := parse(t, c.args...).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-j=3", "-cache=false"},
		{"-cachedir=d"},
		{"-dist=2", "-pipeline=1", "-launcher=ssh host", "-cachedir=d"},
		{"-dist=auto"},
		{"-worker", "-cachedir=d"},
	} {
		if err := parse(t, args...).Validate(); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}

func TestFleetConstruction(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		validate bool
		argv     []string
		opts     dist.CoordinatorOptions
	}{
		{
			name:     "defaults",
			args:     []string{"-dist=3", "-cachedir=d", "-pipeline=4"},
			validate: true,
			argv:     []string{"exe", "-worker", "-cachedir", "d"},
			opts:     dist.CoordinatorOptions{Pipeline: 4},
		},
		{
			// Validate refuses this combination on a command line;
			// workerCommand still never hands a cache-disabled fleet the
			// cache dir.
			name: "cache off drops cachedir",
			args: []string{"-dist=3", "-cachedir=d", "-cache=false"},
			argv: []string{"exe", "-worker"},
		},
		{
			name:     "launcher prefix",
			args:     []string{"-dist=2", "-launcher", "ssh -o X host"},
			validate: true,
			argv:     []string{"exe", "-worker"},
			opts:     dist.CoordinatorOptions{Launcher: dist.CommandLauncher{Prefix: []string{"ssh", "-o", "X", "host"}}},
		},
	}
	for _, c := range cases {
		f := parse(t, c.args...)
		if c.validate {
			if err := f.Validate(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		argv, opts := f.workerCommand("exe")
		if !reflect.DeepEqual(argv, c.argv) {
			t.Errorf("%s: argv = %q, want %q", c.name, argv, c.argv)
		}
		if !reflect.DeepEqual(*opts, c.opts) {
			t.Errorf("%s: options = %+v, want %+v", c.name, *opts, c.opts)
		}
		// Whatever the coordinator spawns, the worker side must accept.
		if err := parse(t, argv[1:]...).Validate(); err != nil {
			t.Errorf("%s: worker argv %q rejected: %v", c.name, argv, err)
		}
	}
}

func TestDistSizesFleet(t *testing.T) {
	for _, c := range []struct {
		dist string
		want int
	}{{"", 0}, {"auto", runtime.NumCPU()}, {"5", 5}} {
		f := parse(t, "-dist="+c.dist)
		if err := f.Validate(); err != nil {
			t.Fatalf("-dist=%q: %v", c.dist, err)
		}
		if got := f.FleetSize(); got != c.want {
			t.Errorf("-dist=%q: fleet of %d, want %d", c.dist, got, c.want)
		}
	}
}

func TestNewRunnerInProcess(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	f := parse(t, "-j=3", "-cachedir="+dir)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r, fleet, err := f.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if fleet != nil {
		t.Error("coordinator built without -dist")
	}
	if r.Workers() != 3 {
		t.Errorf("workers = %d, want 3", r.Workers())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("-cachedir not opened: %v", err)
	}
}
