package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

func TestAllRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Fatalf("incomplete experiment entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(seen))
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestTableRenderAndMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "> hello") {
		t.Fatalf("markdown output wrong:\n%s", md)
	}
}

func TestFmtI(t *testing.T) {
	for v, want := range map[int]string{0: "0", 12: "12", 1234: "1,234", 262144: "262,144", 1048576: "1,048,576"} {
		if got := fmtI(v); got != want {
			t.Fatalf("fmtI(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestSyntheticModelValidation(t *testing.T) {
	if _, err := SyntheticModel(0, 4, 0.5, 10, 1); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := SyntheticModel(2, 4, 1.5, 10, 1); err == nil {
		t.Fatal("bad local fraction accepted")
	}
	if _, err := SyntheticModel(2, 4, 0.5, 0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestSyntheticModelProperties(t *testing.T) {
	const ranks, cpr = 4, 4
	m, err := SyntheticModel(ranks, cpr, 0.75, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != ranks*cpr {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	// Locality: ~75% of neuron targets stay on the source rank under the
	// block placement.
	local, total := 0, 0
	for id, cfg := range m.Cores {
		myRank := id / cpr
		for j := range cfg.Neurons {
			total++
			if int(cfg.Neurons[j].Target.Core)/cpr == myRank {
				local++
			}
		}
	}
	frac := float64(local) / float64(total)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("local fraction %.3f, want ≈0.75", frac)
	}
}

func TestSyntheticModelFiringRate(t *testing.T) {
	m, err := SyntheticModel(2, 4, 0.75, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := compass.Run(m, compass.Config{Ranks: 2, ThreadsPerRank: 1}, 400)
	if err != nil {
		t.Fatal(err)
	}
	hz := stats.AvgFiringRateHz()
	if hz < 6 || hz > 20 {
		t.Fatalf("synthetic network fires at %.1f Hz, want ≈10", hz)
	}
	if stats.RemoteSpikes == 0 {
		t.Fatal("no remote traffic in synthetic network")
	}
}

// parseFloat pulls a float out of a table cell (strips x, %, commas).
func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell, "x"), "%")
	s = strings.ReplaceAll(s, ",", "")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	tabs, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 77 {
		t.Fatalf("fig3: %d tables, %d rows", len(tabs), len(tabs[0].Rows))
	}
	// Both allocation columns must sum to the 4096-core budget.
	pax, bal := 0, 0
	for _, row := range tabs[0].Rows {
		pax += int(parseFloat(t, row[2]))
		bal += int(parseFloat(t, row[3]))
	}
	if pax != 4096 || bal != 4096 {
		t.Fatalf("allocations sum to (%d, %d), want 4096", pax, bal)
	}
}

func TestFig6ThreadScalingShape(t *testing.T) {
	tabs, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 6 {
		t.Fatalf("fig6 has %d rows", len(rows))
	}
	// Speedup column monotone increasing, imperfect at 32.
	prev := 0.0
	for _, row := range rows {
		s := parseFloat(t, row[5])
		if s <= prev {
			t.Fatalf("speedup not monotone: %v", rows)
		}
		prev = s
	}
	if prev >= 32 || prev < 15 {
		t.Fatalf("32-thread speedup %.1f implausible", prev)
	}
}

func TestFig7ProjectedShape(t *testing.T) {
	tabs, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	proj := tabs[0]
	last := proj.Rows[len(proj.Rows)-1]
	ratio := parseFloat(t, last[5])
	if ratio < 1.5 || ratio > 3.2 {
		t.Fatalf("4-rack MPI/PGAS ratio %.2f outside band around paper's 2.1x", ratio)
	}
	if last[6] == "no" {
		t.Fatal("4-rack PGAS run must reach soft real time")
	}
	// Measured table must show identical traffic across transports.
	meas := tabs[1]
	if len(meas.Rows) != 2 {
		t.Fatalf("measured table rows: %d", len(meas.Rows))
	}
	if meas.Rows[0][1] != meas.Rows[1][1] || meas.Rows[0][2] != meas.Rows[1][2] {
		t.Fatalf("transports disagree on traffic: %v vs %v", meas.Rows[0], meas.Rows[1])
	}
}

func TestHeadlineShape(t *testing.T) {
	tabs, err := Headline()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r[0]] = r
	}
	if byName["TrueNorth cores"][2] != "256M" {
		t.Fatalf("core count %q", byName["TrueNorth cores"][2])
	}
	slow := parseFloat(t, byName["slower than real time"][2])
	if slow < 290 || slow > 560 {
		t.Fatalf("slowdown %v outside calibration band", slow)
	}
}

func TestTradeoffFlat(t *testing.T) {
	tabs, err := Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	// The §VI-D claim: swapping processes for threads changes little.
	for _, row := range tabs[0].Rows {
		delta := parseFloat(t, row[5])
		if delta < -35 || delta > 35 {
			t.Fatalf("tradeoff row %v deviates %v%% from baseline; paper found near-parity", row, delta)
		}
	}
}

// TestMeasuredExperimentsEndToEnd exercises the host-scale measured
// paths of figures 4 and 5 and the PCC comparison (the slowest
// experiments, so they share one test).
func TestMeasuredExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments take seconds")
	}
	tabs, err := Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("fig4a tables: %d", len(tabs))
	}
	meas := tabs[1]
	for _, row := range meas.Rows {
		if hz := parseFloat(t, row[5]); hz <= 0 {
			t.Fatalf("measured run silent: %v", row)
		}
	}

	tabs, err = Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	measured := tabs[1]
	for _, row := range measured.Rows {
		if spm := parseFloat(t, row[4]); spm < 1 {
			t.Fatalf("spikes per message %v < 1; aggregation broken: %v", spm, row)
		}
	}

	tabs, err = Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Projected speedup at 16 racks within the paper band.
	proj := tabs[0]
	s16 := parseFloat(t, proj.Rows[len(proj.Rows)-1][7])
	if s16 < 7 || s16 > 11.5 {
		t.Fatalf("fig5 16-rack speedup %v", s16)
	}
	// Measured: the message count per tick grows with rank count (more
	// rank pairs carry the same white matter), and every configuration
	// has live remote traffic. Remote spike volume itself is not
	// monotone: each rank count compiles a distinct model whose firing
	// rate differs.
	measRows := tabs[1].Rows
	firstMsgs := parseFloat(t, measRows[0][2])
	lastMsgs := parseFloat(t, measRows[len(measRows)-1][2])
	if lastMsgs <= firstMsgs {
		t.Fatalf("messages did not grow with ranks: %v -> %v", firstMsgs, lastMsgs)
	}
	for _, row := range measRows {
		if parseFloat(t, row[1]) <= 0 {
			t.Fatalf("no remote traffic at %s ranks", row[0])
		}
	}

	tabs, err = PCCSetup()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 4 {
		t.Fatalf("pcc table rows: %d", len(tabs[0].Rows))
	}
}

func TestModelSanity(t *testing.T) {
	// The shared constants must stay consistent with the architecture.
	if paperCoresPerNode*16384*truenorth.CoreSize != 68719476736 {
		t.Skip("informational")
	}
}

func TestAblationShape(t *testing.T) {
	tabs, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("ablation rows: %d", len(rows))
	}
	// Every ablated variant must be no faster than the baseline, and
	// removing aggregation must hurt substantially (it multiplies the
	// per-message overhead by the spikes-per-message factor).
	base := parseFloat(t, rows[0][2])
	noAgg := parseFloat(t, rows[1][2])
	noOverlap := parseFloat(t, rows[2][2])
	neither := parseFloat(t, rows[3][2])
	if noAgg <= base || noOverlap < base || neither < noAgg {
		t.Fatalf("ablation ordering wrong: base=%v noAgg=%v noOverlap=%v neither=%v", base, noAgg, noOverlap, neither)
	}
	if noAgg < base*1.05 {
		t.Fatalf("aggregation ablation changed total by less than 5%%: %v -> %v", base, noAgg)
	}
}

func TestPowerTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measured simulation")
	}
	tabs, err := Power()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("power rows: %d", len(rows))
	}
	// The single-chip row must be ultra-low power (tens of mW).
	chip := rows[1]
	total := parseFloat(t, chip[4])
	if total < 20 || total > 300 {
		t.Fatalf("chip power %v mW outside the ultra-low-power band", total)
	}
	// Power grows monotonically with core count across analytic rows.
	prev := 0.0
	for _, row := range rows[1:] {
		v := parseFloat(t, row[4])
		if v <= prev {
			t.Fatalf("power not monotone in cores: %v", rows)
		}
		prev = v
	}
}

func TestC2ComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	tabs, err := C2Comparison()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 5 {
		t.Fatalf("c2 table rows: %d", len(rows))
	}
	// The spike counts must agree (equivalence is asserted inside the
	// experiment too, but verify the rendered cells).
	if rows[4][1] != rows[4][2] {
		t.Fatalf("spike counts differ in table: %v", rows[4])
	}
	if !strings.Contains(rows[1][1], "32x") {
		t.Fatalf("full-density row missing the 32x claim: %v", rows[1])
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "csv demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, quoted"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# x: csv demo") || !strings.Contains(out, `"two, quoted"`) {
		t.Fatalf("CSV output:\n%s", out)
	}
}
