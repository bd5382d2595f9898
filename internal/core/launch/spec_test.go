package launch

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
)

// altStrings gives a legal non-default value for every flag whose
// alternative cannot be derived from its type.
var altStrings = map[string]string{
	"app":      "miniyarn",
	"params":   "flink.checkpoint.interval,flink.task.slots",
	"tests":    "TestCheckpointBarrier",
	"sched":    "fifo",
	"seq":      "fixed",
	"select":   "all",
	"override": "flink.task.slots=3",
}

// observationOnly lists the fields that must not move the flags digest;
// notInDigest in spec.go argues each one out. Every other field must.
var observationOnly = map[string]bool{"App": true, "Overrides": true}

// baseSpec is DefaultSpec made launchable on the distributed path, so a
// change to any field has somewhere to show up.
func baseSpec() Spec {
	s := DefaultSpec()
	s.App = "miniflink"
	s.Workers = 2
	return s
}

func bound(s *Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("zebraconf", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Bind(fs)
	return fs
}

// altValue is a value for f that differs from its default.
func altValue(t *testing.T, f *flag.Flag) string {
	if v, ok := altStrings[f.Name]; ok {
		return v
	}
	g, ok := f.Value.(flag.Getter)
	if !ok {
		t.Fatalf("flag -%s: no alternative value known", f.Name)
	}
	switch v := g.Get().(type) {
	case bool:
		return fmt.Sprint(!v)
	case int:
		return fmt.Sprint(v + 1)
	case int64:
		return fmt.Sprint(v + 1)
	case float64:
		return fmt.Sprint(v + 0.25)
	}
	t.Fatalf("flag -%s: no alternative value known", f.Name)
	return ""
}

// specFlags maps each Spec field to the flag Bind registers for it, found
// by setting every flag in turn and seeing which single field moved.
func specFlags(t *testing.T) map[string]*flag.Flag {
	t.Helper()
	base := baseSpec()
	out := make(map[string]*flag.Flag)
	probe := base
	bound(&probe).VisitAll(func(f *flag.Flag) {
		s := base
		if err := bound(&s).Set(f.Name, altValue(t, f)); err != nil {
			t.Fatalf("-%s: %v", f.Name, err)
		}
		var moved []string
		for i, n := 0, reflect.TypeOf(s).NumField(); i < n; i++ {
			if !reflect.DeepEqual(reflect.ValueOf(s).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
				moved = append(moved, reflect.TypeOf(s).Field(i).Name)
			}
		}
		if len(moved) != 1 || out[moved[0]] != nil {
			t.Fatalf("-%s moved fields %v, want exactly one not bound to another flag", f.Name, moved)
		}
		out[moved[0]] = f
	})
	for i, n := 0, reflect.TypeOf(base).NumField(); i < n; i++ {
		if name := reflect.TypeOf(base).Field(i).Name; out[name] == nil {
			t.Fatalf("Spec.%s is bound to no flag", name)
		}
	}
	return out
}

func mustPrepare(t *testing.T, s Spec) *prepared {
	t.Helper()
	app, err := apps.ByName(s.App)
	if err != nil {
		t.Fatal(err)
	}
	l, err := prepare(app, s, Env{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEveryFieldSurvivesTheWholePath sets each field of Spec to a
// non-default value on the command line and follows it: flag parse → the
// campaign.Options and dist.Options the launcher builds → the flags digest.
func TestEveryFieldSurvivesTheWholePath(t *testing.T) {
	base := baseSpec()
	baseBuilt := mustPrepare(t, base)
	for field, f := range specFlags(t) {
		parsed := base
		if err := bound(&parsed).Parse([]string{"-" + f.Name + "=" + altValue(t, f)}); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if reflect.DeepEqual(reflect.ValueOf(parsed).FieldByName(field).Interface(), reflect.ValueOf(base).FieldByName(field).Interface()) {
			t.Errorf("%s: -%s=%s did not reach the Spec", field, f.Name, altValue(t, f))
		}
		built := mustPrepare(t, parsed)
		if reflect.DeepEqual(built.opts, baseBuilt.opts) && reflect.DeepEqual(built.dopts, baseBuilt.dopts) {
			t.Errorf("%s: the launcher builds the same options with and without -%s=%s", field, f.Name, altValue(t, f))
		}
		if changed := parsed.Digest() != base.Digest(); changed == observationOnly[field] {
			t.Errorf("%s: changes the flags digest = %v, listed as observation-only = %v", field, changed, observationOnly[field])
		}
	}
}

// TestDriftedSettingsReachTheEngine pins the three settings that were
// once lost or rewritten on their way from the flags to the engine, and
// the heartbeat the workers beat at.
func TestDriftedSettingsReachTheEngine(t *testing.T) {
	got := baseSpec()
	err := bound(&got).Parse([]string{"-select=all", "-thread-only", "-override=flink.task.slots=3"})
	if err != nil {
		t.Fatal(err)
	}
	l := mustPrepare(t, got)
	if l.opts.SelectCoverage {
		t.Error("-select all: coverage selection still on")
	}
	if l.opts.Strategy != agent.StrategyThreadOnly || l.dopts.Config.Strategy != int(agent.StrategyThreadOnly) {
		t.Error("-thread-only did not reach the campaign and worker configuration")
	}
	if got.ExecFlags()["thread-only"] != "true" {
		t.Error("-thread-only is not in the flags digest")
	}
	want := map[string]string{"flink.task.slots": "3"}
	if !reflect.DeepEqual(l.opts.Overrides, want) || !reflect.DeepEqual(l.dopts.Config.Overrides, want) {
		t.Errorf("-override: campaign %v, workers %v, want %v", l.opts.Overrides, l.dopts.Config.Overrides, want)
	}
	if q := mustPrepare(t, Spec{App: "miniflink", Sched: "lpt", Seq: "sprt", Select: "all"}); q.opts.QuarantineThreshold != math.MaxInt32 {
		t.Errorf("quarantine 0 built threshold %d, want never", q.opts.QuarantineThreshold)
	}
}

// TestGoldenDigests pins the flags digest of the default campaign and of
// a flat minihdfs subset run with -workers 2, so existing ledgers and
// coverage indexes stay comparable: a change here makes every index
// written before it stale.
func TestGoldenDigests(t *testing.T) {
	if got := DefaultSpec().Digest(); got != "75892bf208c90617" {
		t.Errorf("default digest = %s", got)
	}
	s := DefaultSpec()
	err := bound(&s).Parse(strings.Fields("-app minihdfs -no-pool -params dfs.bytes-per-checksum,dfs.checksum.type " +
		"-tests TestWriteRead,TestFsck,TestMkdirList -seed 7 -quarantine 0 -workers 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Digest(); got != "1787d0fcae65185f" {
		t.Errorf("-workers 2 digest = %s", got)
	}
}

func TestValidateRejectsBadSettings(t *testing.T) {
	for _, arg := range []string{"-sched=random", "-seq=bayes", "-select=some", "-override=novalue", "-override==3"} {
		s := DefaultSpec()
		if err := bound(&s).Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		if s.Validate() == nil {
			t.Errorf("%s validated", arg)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Error(err)
	}
}

// TestReadmeSpecTable keeps README's table of the campaign flags
// generated: one row per Spec field with its flag, its default and whether
// it is in the flags digest. On a mismatch the expected table is printed.
func TestReadmeSpecTable(t *testing.T) {
	flags := specFlags(t)
	def := DefaultSpec()
	var b strings.Builder
	b.WriteString("| flag | default | in flags digest |\n|---|---|---|\n")
	for i, n := 0, reflect.TypeOf(def).NumField(); i < n; i++ {
		sf := reflect.TypeOf(def).Field(i)
		f := flags[sf.Name]
		changed := def
		if err := bound(&changed).Set(f.Name, altValue(t, f)); err != nil {
			t.Fatal(err)
		}
		in := "yes"
		if changed.Digest() == def.Digest() {
			in = "no"
		}
		// DefValue of a flag bound to DefaultSpec is the default itself.
		d := def
		flagDefault := "(empty)"
		if v := bound(&d).Lookup(f.Name).DefValue; v != "" {
			flagDefault = "`" + v + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, flagDefault, in)
	}
	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README.md does not contain the Spec table generated from DefaultSpec():\n%s", b.String())
	}
}
