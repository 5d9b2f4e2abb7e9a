package cli

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// A resumed qsim run is the uninterrupted run: resumed from a mid-run
// checkpoint and from the terminal one, every single mixed run that has
// a preset, and every example scenario, prints the same stdout and
// writes the same -csv files, metrics exposition and decision log. The
// paper figures run a three-period prefix of their schedule with short
// periods, which keeps their traces small enough to compare too; the
// other runs' traces run to hundreds of MB, and their resume is pinned
// in internal/experiment. Not parallel with the other tests: it
// shortens the figure presets.
func TestResumePrintsTheUninterruptedRun(t *testing.T) {
	for _, e := range qsimExperiments {
		if preset := e.preset; preset != nil && strings.HasPrefix(e.name, "fig") {
			e.preset = func(exp string) experiment.MixedConfig {
				cfg := preset(exp)
				cfg.Sched.Clients, cfg.Sched.PeriodSeconds = cfg.Sched.Clients[:3], 200
				return cfg
			}
			t.Cleanup(func() { e.preset = preset })
		}
	}
	type run struct {
		name             string
		args             []string
		trace, decisions bool
	}
	runs := []run{
		{"fig4", []string{"-exp", "fig4"}, true, false},
		{"fig5", []string{"-exp", "fig5"}, true, false},
		{"fig6", []string{"-exp", "fig6"}, true, true},
		{"fig7", []string{"-exp", "fig7"}, true, true},
		{"infeasible", []string{"-exp", "infeasible"}, false, true},
		{"routing", []string{"-exp", "routing"}, false, true},
	}
	scenarios, err := filepath.Glob(examples + "scenarios/*.json")
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, s := range scenarios {
		runs = append(runs, run{filepath.Base(s), []string{"-scenario", s}, false, true})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			// outputs runs qsim with args and the exports under name, and
			// returns everything the run printed and wrote.
			outputs := func(name string, args ...string) map[string]string {
				t.Helper()
				out := filepath.Join(dir, name)
				args = append(args, "-metrics", out+".prom", "-csv", out+"-csv")
				if r.trace {
					args = append(args, "-trace", out+".jsonl")
				}
				if r.decisions {
					args = append(args, "-decisions", out+".d.jsonl")
				}
				stdout, stderr, code := call(qsim, args...)
				if code != 0 {
					t.Fatalf("qsim %v: exit %d: %s", args, code, stderr)
				}
				got := map[string]string{"stdout": stdout}
				csvs, _ := filepath.Glob(out + "-csv/*")
				for _, p := range append(csvs, out+".prom", out+".jsonl", out+".d.jsonl") {
					if f, err := os.Open(p); err == nil {
						h := sha256.New()
						io.Copy(h, f)
						f.Close()
						got[strings.TrimPrefix(p, out)] = fmt.Sprintf("%x", h.Sum(nil))
					}
				}
				return got
			}
			ck := filepath.Join(dir, "ck")
			want := outputs("fresh", append(r.args, "-checkpoint-every", "2", "-checkpoint-dir", ck)...)
			var indices []int
			entries, err := os.ReadDir(ck)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				var idx int
				if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.bin", &idx); err == nil {
					indices = append(indices, idx)
				}
			}
			slices.Sort(indices)
			if len(indices) < 2 {
				t.Fatalf("checkpoints %v: want a middle one and the terminal one", indices)
			}
			for _, at := range []int{indices[(len(indices)-1)/2], indices[len(indices)-1]} {
				// The run as it stood at checkpoint at: the checkpoints up
				// to it, and the export files it appends to.
				name := fmt.Sprintf("at%d", at)
				resumeDir := filepath.Join(dir, name+"-ck")
				if err := os.Mkdir(resumeDir, 0o755); err != nil {
					t.Fatal(err)
				}
				for _, idx := range indices[:slices.Index(indices, at)+1] {
					f := fmt.Sprintf("ckpt-%08d.bin", idx)
					copyFile(t, filepath.Join(ck, f), filepath.Join(resumeDir, f))
				}
				for _, ext := range []string{".jsonl", ".d.jsonl"} {
					if _, err := os.Stat(filepath.Join(dir, "fresh"+ext)); err == nil {
						copyFile(t, filepath.Join(dir, "fresh"+ext), filepath.Join(dir, name+ext))
					}
				}
				got := outputs(name, "-resume", resumeDir)
				for k, w := range want {
					if got[k] != w {
						t.Errorf("resumed at boundary %d of %d: %s differs from the uninterrupted run's:\n%s\nwant:\n%s", at, indices[len(indices)-1], k, got[k], w)
					}
				}
				for k := range got {
					if _, ok := want[k]; !ok {
						t.Errorf("resumed at boundary %d of %d: wrote %s, which the uninterrupted run did not", at, indices[len(indices)-1], k)
					}
				}
			}
		})
	}
}

// copyFile copies src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
