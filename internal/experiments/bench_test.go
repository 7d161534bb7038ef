package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchGridSmall runs the full mode grid on one tiny preset and checks
// the structural invariants every BENCH_runs.json consumer relies on.
func TestBenchGridSmall(t *testing.T) {
	rep, err := BenchGrid(Options{
		Scale: 0.002, Threads: 4, Benchmarks: []string{"_200_check"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	wantModes := []string{"SeqCFL", "ParCFL-naive", "ParCFL-D", "ParCFL-DQ", "ParCFL-DQ+cache"}
	if len(rep.Runs) != len(wantModes) {
		t.Fatalf("%d runs, want %d", len(rep.Runs), len(wantModes))
	}
	queries := rep.Runs[0].Queries
	for i, r := range rep.Runs {
		if r.Mode != wantModes[i] {
			t.Fatalf("run %d mode = %q, want %q", i, r.Mode, wantModes[i])
		}
		if r.Bench != "_200_check" || r.WallNS <= 0 || r.Queries == 0 {
			t.Fatalf("run %d malformed: %+v", i, r)
		}
		if r.Queries != queries {
			t.Fatalf("run %d: %d queries, Seq saw %d", i, r.Queries, queries)
		}
		if r.StepsWalked != r.TotalSteps-r.StepsSaved {
			t.Fatalf("run %d: walked %d != total %d - saved %d", i, r.StepsWalked, r.TotalSteps, r.StepsSaved)
		}
	}
	seq := rep.Runs[0]
	if seq.ModeledSpeedup != 1 || seq.WallSpeedup != 1 {
		t.Fatalf("Seq row must be its own baseline: %+v", seq)
	}
	if d := rep.Runs[2]; d.ShareFinished == 0 || d.ShareLookups == 0 {
		t.Fatalf("D row has no sharing activity: %+v", d)
	}
	if c := rep.Runs[4]; c.CacheHits+c.CacheMisses == 0 {
		t.Fatalf("cache row has no cache activity: %+v", c)
	}
}

// TestBenchReportJSONRoundTrip: the report must survive marshal/unmarshal
// bit-exactly — the contract behind the BENCH_runs.json artifact.
func TestBenchReportJSONRoundTrip(t *testing.T) {
	orig := &BenchReport{
		Schema: BenchSchema, Generated: "2026-01-02T03:04:05Z",
		Host: "linux/amd64 8 cores", Scale: 0.01, Budget: 75000, Threads: 4,
		Runs: []BenchRun{{
			Bench: "_209_db", Mode: "ParCFL-DQ", Threads: 4, WallNS: 123456789,
			Queries: 1339, Completed: 1300, Aborted: 39, EarlyTerminations: 7,
			TotalSteps: 9999999, StepsWalked: 7000000, StepsSaved: 2999999, JumpsTaken: 4242,
			ModeledSpeedup: 8.1, WallSpeedup: 2.3, RS: 0.43,
			ShareFinished: 100, ShareUnfinished: 5, ShareLookups: 5000, ShareHits: 900, ShareHitRate: 0.18,
			CacheHits: 10, CacheMisses: 90, CacheHitRate: 0.1,
			NumGroups: 77, AvgGroupSize: 17.4,
		}},
	}
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &back) {
		t.Fatalf("round trip changed the report:\n%+v\nvs\n%+v", orig, back)
	}
	// Field names are part of the schema contract: spot-check the wire keys.
	for _, key := range []string{
		`"schema"`, `"wall_ns"`, `"early_terminations"`, `"steps_walked"`,
		`"modeled_speedup"`, `"r_s"`, `"share_hit_rate"`, `"cache_hit_rate"`,
		`"avg_group_size"`,
	} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("wire format lost key %s:\n%s", key, data)
		}
	}
}

// TestBenchWritesJSONFile: the Bench experiment honours Options.JSONPath;
// the file it writes parses back as one report under the current schema,
// and a second run replaces it.
func TestBenchWritesJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_runs.json")
	for _, rev := range []string{"abc1234", "def5678"} {
		var out bytes.Buffer
		err := BenchTrajectory(Options{
			Scale: 0.002, Threads: 2, Benchmarks: []string{"_200_check"},
			Out: &out, JSONPath: path, GitRev: rev,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(out.Bytes(), []byte("wrote")) {
			t.Fatalf("no confirmation line in output: %s", out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep BenchReport
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if rep.Schema != BenchSchema || len(rep.Runs) != 5 || rep.GitRev != rev {
			t.Fatalf("report = schema %q, %d runs, rev %q", rep.Schema, len(rep.Runs), rep.GitRev)
		}
	}
}
