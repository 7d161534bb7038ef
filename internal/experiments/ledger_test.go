package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"parcfl/internal/engine"
	"parcfl/internal/javagen"
)

// The step ledger pins the analysis's work exactly. One-thread runs of
// Seq, D and DQ are deterministic, so every counter below — steps, jumps,
// jmp-store inserts and lookups, cache traffic — and both digests must
// repeat bit for bit. A change that moves any of them, however slightly,
// fails TestStepLedger with a per-field diff; a change that is meant to
// move them reruns the test with -update and commits the new table in the
// same diff, saying why the work changed.

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json from this run")

const ledgerPath = "testdata/ledger.json"

// ledgerBudget is small enough that every mode aborts some queries, and
// large enough (above the default τU) that D and DQ record unfinished
// markers and fire early terminations on both programs.
const ledgerBudget = 15000

// ledgerPrograms are the two generated programs the ledger runs: one
// app-heavy avrora and one library-heavy _209_db, each sized to finish in
// about a second for all six of its rows.
var ledgerPrograms = []struct {
	name  string
	scale float64
}{
	{"avrora", 0.014},
	{"_209_db", 0.05},
}

// ledgerRow is one (program, mode, result cache) run of the ledger.
type ledgerRow struct {
	Program string  `json:"program"`
	Scale   float64 `json:"scale"`
	Budget  int     `json:"budget"`
	Mode    string  `json:"mode"`
	Cache   bool    `json:"cache"`

	Queries           int `json:"queries"`
	Completed         int `json:"completed"`
	Aborted           int `json:"aborted"`
	EarlyTerminations int `json:"early_terminations"`

	TotalSteps int64 `json:"total_steps"`
	StepsSaved int64 `json:"steps_saved"`
	JumpsTaken int64 `json:"jumps_taken"`

	FinishedAdded        int64 `json:"finished_added"`
	UnfinishedAdded      int64 `json:"unfinished_added"`
	FinishedSuppressed   int64 `json:"finished_suppressed"`
	UnfinishedSuppressed int64 `json:"unfinished_suppressed"`
	InsertLost           int64 `json:"insert_lost"`
	Lookups              int64 `json:"lookups"`
	LookupHits           int64 `json:"lookup_hits"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// AnswerDigest is answerDigest over the completed queries; AbortDigest
	// is abortDigest over the aborted ones.
	AnswerDigest string `json:"answer_digest"`
	AbortDigest  string `json:"abort_digest"`
}

func (r ledgerRow) key() string {
	return fmt.Sprintf("%s×%g/%s/cache=%t", r.Program, r.Scale, r.Mode, r.Cache)
}

// answerDigest hashes the completed answers in the format of bench/'s
// census digest: one "%010d:" line per variable with its sorted objects,
// comma-terminated, lines sorted and newline-joined, SHA-256 in hex.
func answerDigest(results []engine.QueryResult) string {
	lines := make([]string, 0, len(results))
	for _, r := range results {
		if r.Aborted {
			continue
		}
		objs := slices.Clone(r.Objects)
		slices.Sort(objs)
		var b strings.Builder
		fmt.Fprintf(&b, "%010d:", r.Var)
		for _, o := range objs {
			b.WriteString(strconv.Itoa(int(o)))
			b.WriteByte(',')
		}
		lines = append(lines, b.String())
	}
	return hashLines(lines)
}

// abortDigest hashes the sorted ids of the aborted variables, one
// "%010d" line each.
func abortDigest(results []engine.QueryResult) string {
	var lines []string
	for _, r := range results {
		if r.Aborted {
			lines = append(lines, fmt.Sprintf("%010d", r.Var))
		}
	}
	return hashLines(lines)
}

func hashLines(lines []string) string {
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// runLedger runs every ledger row on one thread.
func runLedger(t *testing.T) []ledgerRow {
	t.Helper()
	var rows []ledgerRow
	for _, p := range ledgerPrograms {
		pr, err := javagen.PresetByName(p.name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PrepareBench(pr, p.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.Seq, engine.D, engine.DQ} {
			for _, cache := range []bool{false, true} {
				results, st := engine.Run(b.Lowered.Graph, b.Queries, engine.Config{
					Mode: mode, Threads: 1, Budget: ledgerBudget,
					TypeLevels: b.Lowered.TypeLevels, ResultCache: cache,
				})
				rows = append(rows, ledgerRow{
					Program: p.name, Scale: p.scale, Budget: ledgerBudget,
					Mode: mode.String(), Cache: cache,

					Queries:           st.Queries,
					Completed:         st.Completed,
					Aborted:           st.Aborted,
					EarlyTerminations: st.EarlyTerminations,

					TotalSteps: st.TotalSteps,
					StepsSaved: st.StepsSaved,
					JumpsTaken: st.JumpsTaken,

					FinishedAdded:        st.Share.FinishedAdded,
					UnfinishedAdded:      st.Share.UnfinishedAdded,
					FinishedSuppressed:   st.Share.FinishedSuppressed,
					UnfinishedSuppressed: st.Share.UnfinishedSuppressed,
					InsertLost:           st.Share.InsertLost,
					Lookups:              st.Share.Lookups,
					LookupHits:           st.Share.LookupHits,

					CacheHits:   st.Cache.Hits,
					CacheMisses: st.Cache.Misses,

					AnswerDigest: answerDigest(results),
					AbortDigest:  abortDigest(results),
				})
			}
		}
	}
	return rows
}

// fieldDiff lists every field on which got differs from want, by its JSON
// name.
func fieldDiff(want, got ledgerRow) []string {
	var out []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		w, g := wv.Field(i).Interface(), gv.Field(i).Interface()
		if w != g {
			name, _, _ := strings.Cut(wv.Type().Field(i).Tag.Get("json"), ",")
			out = append(out, fmt.Sprintf("%s: ledger %v, got %v", name, w, g))
		}
	}
	return out
}

// TestStepLedger runs the ledger and compares it with the committed table.
func TestStepLedger(t *testing.T) {
	got := runLedger(t)

	// The ledger pins aborts and early terminations only if they happen:
	// guard the configuration, so a rescaled program cannot silently stop
	// covering them.
	for _, r := range got {
		if r.Aborted == 0 {
			t.Errorf("%s: no query aborted; lower ledgerBudget or raise the scale", r.key())
		}
		if r.Mode != engine.Seq.String() && r.EarlyTerminations == 0 {
			t.Errorf("%s: no early termination fired", r.key())
		}
	}

	if *updateLedger {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", ledgerPath, len(got))
		return
	}

	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -run TestStepLedger -update)", err)
	}
	var want []ledgerRow
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}

	wantByKey := make(map[string]ledgerRow, len(want))
	for _, r := range want {
		wantByKey[r.key()] = r
	}
	for _, g := range got {
		w, ok := wantByKey[g.key()]
		if !ok {
			t.Errorf("%s: row missing from %s", g.key(), ledgerPath)
			continue
		}
		delete(wantByKey, g.key())
		for _, d := range fieldDiff(w, g) {
			t.Errorf("%s: %s", g.key(), d)
		}
	}
	for k := range wantByKey {
		t.Errorf("%s: row in %s but not run", k, ledgerPath)
	}
	if t.Failed() {
		t.Log("if the change in work is intended, rerun with -update and say why in the commit")
	}
}
