package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smallSeed42Digests pins the SHA-256 of every artifact that
// `eyeballexp -small -seed 42 -out dir` writes. The bytes do not depend
// on GOMAXPROCS, worker counts or batch sizes, so any change here is a
// change to the reproduction's numbers and must be deliberate: rerun the
// command, inspect the diff, and update the table in the same commit.
var smallSeed42Digests = map[string]string{
	"bias.txt":         "e6fc93a5989cf57959ac906ce8674c707110f62f43e10ddf9bdd96c912acb7ac",
	"casestudy.txt":    "ac714814123812b53a06fe571db3872cdb3f2f4d6f575c498eb5919a6e28c882",
	"crawlquality.txt": "a87ecee92cc793040f4467369545402b5e3c9e7950283120eab5d7ee14ee9284",
	"degradation.csv":  "7870e6880679f1695f53936794abc2f31eb943adc144a67420602c016ba7b7c9",
	"degradation.txt":  "250dc2f2f4a66ecfac0ad0993756fcbd63ed55afbee42c54e9601c6caec53d93",
	"density.txt":      "7150f0d55e3bbdf00b27d2a2c2c07dc207bd72c7b8b70b2e0e56d8909d17c2b9",
	"dimes.txt":        "a509e1c00db6e4fbff39cd4f281be7ce714a98227d7c91dd14f144ec814af00c",
	"figure1.txt":      "a022df6b9fd534a4554dbcf30be4371084ae144b66bae3be42b2e5ade02d1e83",
	"figure2.csv":      "8412924596b3b41269fa6211271858b31a66882fc3d53433e3357e08b37cb3e9",
	"figure2.txt":      "cdcc9bd1cada8efc329d354d89e6c0b743f1279aa3e48d4530df136ed96ed1af",
	"fusion.txt":       "2b717ac8beff65797dc3619896a32255e2059d09bd5d6668907b267edb0582c7",
	"multiscale.txt":   "0b65e1f14c0d57858427ce742198ad0e2ccaf1103905b022a7144b34d58e3686",
	"peergeo.txt":      "e000eed3297b76e05f00f381b11de2c68ed8fbe44f4be8b16efbe4762d1c5334",
	"predict.txt":      "f3f519e5cdf97058d639a0255225a045c6507c60798c6ca2807ebd272eee7389",
	"section5.txt":     "2ef4dc9ecef5fbe920fdc75970525f742066c4b4c48cf5abc57ff721e07314ae",
	"services.txt":     "0e114cc7e4ad2646272b32844756e5e97d822b7a5f6e3b2c6ebd8b5b09111c06",
	"stability.txt":    "2fec79477f0510a7bd41a8ac2b12b0cb6297e5eb80dd571fd9d14dec061fbbc0",
	"table1.csv":       "0991b5b277a7babf75d137a1d90751464fba4f7acbcdf3e920427cbab4965299",
	"table1.txt":       "a56aa6bebff7f5f4df5b8ee27afd40210252051daaaad2971423215f019018a0",
}

// TestRunOutputDigests is the fast gate on the reproduction's science:
// every experiment at test scale must write exactly the pinned bytes,
// and no artifact may appear or disappear.
func TestRunOutputDigests(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-small", "-seed", "42", "-out", dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	names := make([]string, 0, len(smallSeed42Digests))
	for name := range smallSeed42Digests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: not written", name)
		case g != smallSeed42Digests[name]:
			t.Errorf("%s: sha256 %s, pinned %s", name, g, smallSeed42Digests[name])
		}
	}
	for name := range got {
		if _, ok := smallSeed42Digests[name]; !ok {
			t.Errorf("%s: written but not pinned", name)
		}
	}
}
