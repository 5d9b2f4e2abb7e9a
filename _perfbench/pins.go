package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

// pinnedDigests holds, per workload and seed, the tableDigest of the
// workload's reference run (see benchWorkload.reference), for seeds 0-31
// and the held-out seed 7919 (see README.md). Regenerate entries with
// `--pin FROM-TO` after a change that is meant to alter simulated
// outcomes, and say so in the change.
var pinnedDigests = map[string]map[uint64]string{
	"paper-qs": {
		0:    "f8044bd1b04c8ba8",
		1:    "58d678ea89dd8b5a",
		2:    "0a3444c8bfd6214a",
		3:    "97360419c29ba125",
		4:    "42256ecdbc4df7e3",
		5:    "5ae0236103ac3f30",
		6:    "6bb8ad9306d60e5b",
		7:    "0b66386294283987",
		8:    "80b4b28df884d82f",
		9:    "879fbcac962750c2",
		10:   "3055be9e3a1dc6b1",
		11:   "b04c6aa3a5d4d822",
		12:   "f376fc4491e619aa",
		13:   "625b35fe102a2782",
		14:   "7eace1f7f4d2a674",
		15:   "7a85d65d7fd63d04",
		16:   "6ea0e205c6ed0266",
		17:   "24be70f3e06014da",
		18:   "f50e3ed5bdd05812",
		19:   "bfabae668219bec9",
		20:   "c41640d35245680e",
		21:   "84d355dcc1abb2aa",
		22:   "b53a33725dc2c6b2",
		23:   "54fd5b1c1e757bfe",
		24:   "4857f6844665d6dd",
		25:   "602a6d8ce1138eba",
		26:   "af8b2034f0cb8de1",
		27:   "0f6a65b379835c04",
		28:   "ebbc47a95569099d",
		29:   "bda7f06150f9bc7d",
		30:   "d2773dc077eb405f",
		31:   "560433a9624b96da",
		7919: "a60a5b112ff221ae",
	},
	"paper-qs-observed": {
		0:    "c582c4185de90419",
		1:    "5bd7dddbdc26c936",
		2:    "08613fa7b2893c4c",
		3:    "b9f795ff18a45fe4",
		4:    "cd66f05d4b53b37a",
		5:    "f610be61cee2b9cc",
		6:    "1cdb1646140e962f",
		7:    "297ed4b1dd61c472",
		8:    "98988a222a6fae9a",
		9:    "8b6bb448bf4fd2c6",
		10:   "af12379d28230789",
		11:   "76a2e681b723d7ef",
		12:   "bc5e43ad8bca3f27",
		13:   "ab6669afc2ff0934",
		14:   "0073f9baad2dc395",
		15:   "e08ba13010751236",
		16:   "74ba2dd0ad550de9",
		17:   "b7320849c8f75daa",
		18:   "3904a847ec53d37a",
		19:   "3f35a146ff88f1d7",
		20:   "a7286ce42632a329",
		21:   "c225ff92a58a5738",
		22:   "fc9e32ab26ae441e",
		23:   "e3a00e16ecd66906",
		24:   "04578fde33b0b172",
		25:   "da739ef314e210ad",
		26:   "c11542a7f985cb2a",
		27:   "15f79ebe5cd13026",
		28:   "78c9531d9268fe0a",
		29:   "21398ff75121c319",
		30:   "3bb737ca682534fc",
		31:   "fc63dea7e0857618",
		7919: "549d79bcb297d00b",
	},
	"fleet4-faults": {
		0:    "1684e586a49120f3",
		1:    "e16f757a6d9498da",
		2:    "371ca77e4303c102",
		3:    "1b3ebcfb326ded29",
		4:    "8ff5b8f7bd1a8a89",
		5:    "7fcc6cd33c5ee9d8",
		6:    "7918bb657aeac8c0",
		7:    "855744538ee8cebe",
		8:    "d1935629d64c1887",
		9:    "a9db5ee103b0cb82",
		10:   "dd076878654f2edb",
		11:   "5ad76100e4ecf185",
		12:   "36b724f793794e98",
		13:   "2498833b73f19233",
		14:   "4923163037bd22fc",
		15:   "4a58dd08f9f20d46",
		16:   "a5840013c9486799",
		17:   "68f8a7b95b008a2f",
		18:   "c010307c3cf2c8bc",
		19:   "1eab4f1244ce5788",
		20:   "81a1c31b411290be",
		21:   "61495993c30bc73b",
		22:   "658655f69192dfe7",
		23:   "011085efc52d71c6",
		24:   "096c535d694ccbc4",
		25:   "252c152036b34472",
		26:   "874ad34070b508a0",
		27:   "5ac1b8ae02bc96b7",
		28:   "e7af73944218b252",
		29:   "6a28ce7dff560fd1",
		30:   "ba056589ee357c02",
		31:   "d1961db732b81c1a",
		7919: "c2c7a55da6815735",
	},
}

func pinnedDigest(name string, seed uint64) (string, bool) {
	d, ok := pinnedDigests[name][seed]
	return d, ok
}

// printPins runs every workload's reference configuration over the seeds
// in spec ("A-B" or a single seed) and prints pinnedDigests entries.
func printPins(spec string) error {
	lo, hi, err := parseSeedRange(spec)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		fmt.Printf("\t%q: {\n", w.name)
		for seed := lo; seed <= hi; seed++ {
			res := experiment.RunMixed(w.reference(seed))
			if err := checkResult(res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			fmt.Printf("\t\t%d: \"%016x\",\n", seed, tableDigest(res))
		}
		fmt.Println("\t},")
	}
	return nil
}

func parseSeedRange(spec string) (lo, hi uint64, err error) {
	a, b, isRange := strings.Cut(spec, "-")
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", spec, err)
	}
	hi = lo
	if isRange {
		if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("seed range %q: %w", spec, err)
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q is empty", spec)
	}
	return lo, hi, nil
}
