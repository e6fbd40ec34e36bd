package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"carbon/internal/checkpoint"
)

// surrogateCheckpointV2 is a carbon.checkpoint/v2 envelope written by
// an engine that still had surrogate-assisted LP skipping, taken after 4
// generations of a skipping run of compatConfig on smallMarket. Its
// state carries the model's "surrogate" block, which this engine no
// longer knows.
const surrogateCheckpointV2 = `{
"schema":"carbon.checkpoint/v2",
"crc32":2217871810,
"state":{
"fingerprint":"v1|pop=4/4|arch=4/4|probs=0.850/0.010/0.850/0.100/0.050|sample=2|market=60x5x6|cost=false|elim=true|var=",
"rng_state":[15738213695816333292,6863946932190907799,11123271012620183272,16593290744500865204],
"prey":[[569.5390076681176,1191.340613059542,907.366151207209,1403.0373754554096,1095.488907800494,1326.8630895942588],[569.5390076681176,1191.340613059542,907.366151207209,1403.0373754554096,1095.488907800494,1326.8630895942588],[569.5390076681176,1191.340613059542,907.366151207209,1403.0373754554096,1095.488907800494,1326.8630895942588],[569.5265475124272,1184.0215103819626,907.366151207209,1323.8420750114947,1097.681693828671,1326.8630895942588]],
"predators":["(- (- (* q d) b) b)","(- (- (* q d) b) b)","(- (- (- (- (* q d) b) b) b) b)","(- (- (* q d) b) b)"],
"ul_used":16,
"ll_used":32,
"gens":4,
"ul_arch_prices":[[569.5390076681176,1191.340613059542,907.366151207209,1403.0373754554096,1095.488907800494,1326.8630895942588],[464.1284394072867,968.9065694291061,1045.2890904608116,1322.0873591608827,831.5266503439615,1262.502433684629],[810.8893348213579,1301.346159486276,583.416388463702,613.0360361238779,1606.8865963433414,403.2635158800804],[773.7388638299826,1158.630598714901,538.1187687514011,715.3074140033337,91.96452036330261,1437.9704467328022]],
"ul_arch_fitness":[6493.63514478503,5894.440542486677,5318.838031118636,4715.730612395723],
"gp_arch_trees":["(- (- (* q d) b) b)","(- (- (- (* q d) b) b) b)","(- (* q d) b)","(* d d)"],
"gp_arch_fitness":[32.20069053424946,32.20069053424946,32.20069053424946,37.81956933691943],
"ul_curve_x":[12,24,36,48],
"ul_curve_y":[6493.63514478503,6493.63514478503,6493.63514478503,6493.63514478503],
"gap_curve_x":[12,24,36,48],
"gap_curve_y":[37.81956933691943,32.940900996687276,32.20601394276946,32.20069053424946],
"surrogate":{"dim":6,"fits":14,"p":[533.2457464312525,-0.03868032178809,-0.2332034521739075,-0.37155440545737056,0.23712638181635484,-0.04462521943821182,-0.13651679839867928,-0.038680321788090055,0.00005625213319154715,-0.000004449556576016894,-0.0000016095926264165521,0.000027652406920190732,-0.0000076105947571787315,-0.00001230933569184723,-0.23320345217390756,-0.000004449556519173478,0.00011854446327636961,0.0001785901720117356,-0.00011606106215085137,0.00001665615392062025,0.000058015861964801394,-0.3715544054573705,-0.0000016095925837839846,0.0001785901720401573,0.00028799485145246904,-0.00019164364939740588,0.00003136216875404685,0.00009960503071274056,0.2371263818163548,0.000027652406977034164,-0.00011606106220769479,-0.00019164364945957837,0.00015392059833725804,-0.00003476030274155626,-0.0000890198246086883,-0.04462521943821185,-0.000007610594755402375,0.000016656153920620245,0.0000313621687274015,-0.000034760302713134554,0.000013454239731851287,0.000026400978028786462,-0.13651679839867928,-0.000012309335706058084,0.00005801586202164481,0.00009960503065589715,-0.0000890198246086883,0.000026400978028786462,0.00006063657341293242],"w_rev":[35033.29880724339,-17.392219326103646,-3.3862342657301534,-8.935579922737183,-5.026336105995384,-1.070223530113436,-3.2042955972815084],"w_lb":[2009.2621656376436,1.196004052054256,2.7670253920468513,4.5367493476528615,-1.5635388193697242,0.32320048885645686,0.9509514519399539]}}}`

// compatConfig is the configuration surrogateCheckpointV2 was taken
// under, minus the retired skipping knobs.
func compatConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.ULPopSize, cfg.LLPopSize = 4, 4
	cfg.ULArchiveSize, cfg.LLArchiveSize = 4, 4
	cfg.ULEvalBudget, cfg.LLEvalBudget = 4*12, 4*2*12
	cfg.PreySample = 2
	cfg.Workers = 1
	return cfg
}

// TestRestoreIgnoresSurrogateState: a v2 checkpoint carrying a surrogate
// state block must still decode and restore, with the block ignored,
// and continue bit-identical both to a resume from the same state
// without the block and to the constants the skipping-era engine
// produced when it resumed this envelope in exact mode.
func TestRestoreIgnoresSurrogateState(t *testing.T) {
	mk := smallMarket(t)
	finish := func(st *checkpoint.State) *Result {
		t.Helper()
		e, err := Restore(mk, compatConfig(), st)
		if err != nil {
			t.Fatal(err)
		}
		for e.Step() {
		}
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		res, err := e.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	st, err := checkpoint.DecodeBytes([]byte(surrogateCheckpointV2))
	if err != nil {
		t.Fatalf("v2 envelope with a surrogate block refused: %v", err)
	}
	got := finish(st)

	// Re-encoding drops the unknown block: that is the exact resume.
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("surrogate")) {
		t.Fatal("re-encoded state still carries the surrogate block")
	}
	plain, err := checkpoint.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(got), resultKey(finish(plain))) {
		t.Fatal("resume from the surrogate-era envelope diverged from the exact resume")
	}

	const revBits, gapBits = 0x40b95da298d93fee, 0x4011da2bb0be4de6
	if got.Gens != 12 || math.Float64bits(got.Best.Revenue) != revBits ||
		math.Float64bits(got.Best.GapPct) != gapBits || got.Best.TreeStr != "xbar" {
		t.Fatalf("resumed run (%d gens, %#x, %#x, %q), want (12, %#x, %#x, %q)",
			got.Gens, math.Float64bits(got.Best.Revenue), math.Float64bits(got.Best.GapPct),
			got.Best.TreeStr, uint64(revBits), uint64(gapBits), "xbar")
	}
}
