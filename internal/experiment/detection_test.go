package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func shortDetectionConfig() DetectionConfig {
	cfg := DefaultDetectionConfig()
	cfg.Sched = shortSchedule() // 6 periods x 10 min
	cfg.MatchWindow = cfg.Sched.PeriodSeconds / 2
	return cfg
}

// TestGoldenDetectionShort pins E10's table on the short schedule. The
// decision log records no detector output, so this is what holds the
// detector's smoothing, trend window and CUSUM threshold and drift: each
// shows in the counts and delays the table prints.
func TestGoldenDetectionShort(t *testing.T) {
	t.Parallel()
	var b bytes.Buffer
	WriteDetection(&b, RunDetection(shortDetectionConfig()))
	goldenCompare(t, "detection_short_table.txt", b.Bytes())
}

func TestRunDetectionScoresAllClasses(t *testing.T) {
	results := RunDetection(shortDetectionConfig())
	if len(results) != 3 {
		t.Fatalf("%d class results, want 3", len(results))
	}
	for _, r := range results {
		if r.TrueShifts == 0 {
			t.Fatalf("%s: no true shifts in a varying schedule", r.Name)
		}
		if r.Matched > r.Detected || r.Matched > r.TrueShifts {
			t.Fatalf("%s: inconsistent counts %+v", r.Name, r)
		}
		if r.FalseAlarms != r.Detected-r.Matched {
			t.Fatalf("%s: false-alarm arithmetic wrong %+v", r.Name, r)
		}
		if p := r.Precision(); p < 0 || p > 1 {
			t.Fatalf("%s: precision %v", r.Name, p)
		}
		if rec := r.Recall(); rec < 0 || rec > 1 {
			t.Fatalf("%s: recall %v", r.Name, rec)
		}
		if r.MeanDelay < 0 || r.MeanDelay > cfg().MatchWindow {
			t.Fatalf("%s: delay %v outside match window", r.Name, r.MeanDelay)
		}
	}
}

func cfg() DetectionConfig { return shortDetectionConfig() }

func TestRunDetectionFindsOLTPSwings(t *testing.T) {
	// The OLTP class swings 15 -> 25 clients — a 40% change the
	// population-based detector must catch most of the time.
	results := RunDetection(shortDetectionConfig())
	oltp := results[2]
	if oltp.Recall() < 0.5 {
		t.Fatalf("OLTP recall %v too low (%+v)", oltp.Recall(), oltp)
	}
}

func TestDetectionResultEdgeCases(t *testing.T) {
	empty := DetectionResult{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatal("empty result should score perfect by convention")
	}
	r := DetectionResult{TrueShifts: 4, Detected: 8, Matched: 2}
	if r.Precision() != 0.25 || r.Recall() != 0.5 {
		t.Fatalf("scores = %v/%v", r.Precision(), r.Recall())
	}
}

func TestWriteDetection(t *testing.T) {
	var b strings.Builder
	WriteDetection(&b, []DetectionResult{{
		Name: "x", TrueShifts: 2, Detected: 3, Matched: 2, FalseAlarms: 1, MeanDelay: 60,
	}})
	out := b.String()
	for _, want := range []string{"detection accuracy", "precision", "recall", "67%", "100%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
