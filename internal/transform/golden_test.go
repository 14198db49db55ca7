package transform

import (
	"fmt"
	"math/rand"
	"testing"

	"aigtimer/internal/bench"
)

// goldenRecipes are the recipes whose ApplyTracked results are pinned:
// hand-written scripts that chain every basic transform, plus two
// generated mixes.
var goldenRecipes = []string{"compress2rs", "resyn2", "resyn3", "drill", "churn2", "deep", "mix00", "mix41"}

// moveGolden pins the structure every move produces, as aig.Hash of
// the output, keyed "design/seed/name": the name is a catalog transform
// applied to the design, or a recipe applied with ApplyTracked. The
// function-preservation tests accept any equivalent structure; this
// table catches a change that keeps function but alters the graph a
// move returns, which would change annealing trajectories.
var moveGolden = map[string]uint64{
	"EX02/1/b":           0x76069c7d8582e0e9,
	"EX02/1/br":          0xe950099380b63689,
	"EX02/1/churn2":      0xcef2128c63da9b16,
	"EX02/1/compress2rs": 0x732b9c4b4f78dfa5,
	"EX02/1/deep":        0x960e50758a63eeda,
	"EX02/1/drill":       0xd64476d16b40316f,
	"EX02/1/ex":          0xc1c913b492e43968,
	"EX02/1/ex.b":        0x3797992f5ea5d2a7,
	"EX02/1/ex.br":       0x8c0962f41f49cd78,
	"EX02/1/ex.ex":       0x5d1c7386ddc0bacd,
	"EX02/1/ex.fr":       0x0ea3e3d060f0212d,
	"EX02/1/ex.rf":       0xa202702956095ac6,
	"EX02/1/ex.rfz":      0x5ac71a9584a48014,
	"EX02/1/ex.rs":       0x0ea3e3d060f0212d,
	"EX02/1/ex.rsz":      0x0ea3e3d060f0212d,
	"EX02/1/ex.rw":       0xfff873d803419996,
	"EX02/1/ex.rwz":      0xdd7e6a2a47eb7239,
	"EX02/1/fr":          0xa126823758ae44d2,
	"EX02/1/mix00":       0x928cf7f71845e467,
	"EX02/1/mix41":       0xc3a883b4d81fbf4f,
	"EX02/1/resyn2":      0xc473e9b85c39c868,
	"EX02/1/resyn3":      0xec4363f89527e6c8,
	"EX02/1/rf":          0x1fa952fb38fd91cc,
	"EX02/1/rfz":         0x1fa952fb38fd91cc,
	"EX02/1/rs":          0xa126823758ae44d2,
	"EX02/1/rsz":         0xa126823758ae44d2,
	"EX02/1/rw":          0xd98b8959b9523ba2,
	"EX02/1/rwz":         0xef05e3ca133cc350,
	"EX02/7/b":           0x76069c7d8582e0e9,
	"EX02/7/br":          0x0ca9327b6898a281,
	"EX02/7/churn2":      0x4a0529a68bb0bc10,
	"EX02/7/compress2rs": 0xf80a1c49f19e9add,
	"EX02/7/deep":        0xf2af96c3f5831025,
	"EX02/7/drill":       0xeacea6566b40316f,
	"EX02/7/ex":          0x9e28cf08f5566fa0,
	"EX02/7/ex.b":        0x29b98c3173a638dc,
	"EX02/7/ex.br":       0xa470bf2b0dfd6a47,
	"EX02/7/ex.ex":       0x7e782552a39b2945,
	"EX02/7/ex.fr":       0x56de6be4177d5fa1,
	"EX02/7/ex.rf":       0xd42e69825e352204,
	"EX02/7/ex.rfz":      0xa42c7407dca18080,
	"EX02/7/ex.rs":       0x56de6be4177d5fa1,
	"EX02/7/ex.rsz":      0x56de6be4177d5fa1,
	"EX02/7/ex.rw":       0x257e22592fdd7d2e,
	"EX02/7/ex.rwz":      0x4196a1aef55e6516,
	"EX02/7/fr":          0xa126823758ae44d2,
	"EX02/7/mix00":       0x74df3b54039b6d1a,
	"EX02/7/mix41":       0xc3a883b4d81fbf4f,
	"EX02/7/resyn2":      0x428a019dee253de6,
	"EX02/7/resyn3":      0xec4363f89527e6c8,
	"EX02/7/rf":          0x1fa952fb38fd91cc,
	"EX02/7/rfz":         0x1fa952fb38fd91cc,
	"EX02/7/rs":          0xa126823758ae44d2,
	"EX02/7/rsz":         0xa126823758ae44d2,
	"EX02/7/rw":          0xd98b8959b9523ba2,
	"EX02/7/rwz":         0xe3d30f2f11ac17d4,
	"EX08/1/b":           0xbb29f9ed08544f1b,
	"EX08/1/br":          0x7e07386070273e66,
	"EX08/1/churn2":      0x0e64db0a4379bff4,
	"EX08/1/compress2rs": 0xd5d2a52d325fb836,
	"EX08/1/deep":        0x1c169241b43dc35a,
	"EX08/1/drill":       0x0294bb3a8bb4cf9a,
	"EX08/1/ex":          0x630f258ef0b6bd62,
	"EX08/1/ex.b":        0x84bb5d707319b960,
	"EX08/1/ex.br":       0x6d2ec6eec22eb3b6,
	"EX08/1/ex.ex":       0xc4565b309cd2441b,
	"EX08/1/ex.fr":       0xf8c4d1bd29e2dee9,
	"EX08/1/ex.rf":       0x262a0371ef79696b,
	"EX08/1/ex.rfz":      0x4520a78891c3897a,
	"EX08/1/ex.rs":       0xf8c4d1bd29e2dee9,
	"EX08/1/ex.rsz":      0xf8c4d1bd29e2dee9,
	"EX08/1/ex.rw":       0x8ed23fd64deaa610,
	"EX08/1/ex.rwz":      0x4e4833d3f9e0863e,
	"EX08/1/fr":          0x8bbb31df326e8190,
	"EX08/1/mix00":       0x3fc95048822e38aa,
	"EX08/1/mix41":       0x1fa757bb857f6de0,
	"EX08/1/resyn2":      0xa9e4b81d9c2524f1,
	"EX08/1/resyn3":      0xe4b589a37f73b8b8,
	"EX08/1/rf":          0x7e104b2f468624d2,
	"EX08/1/rfz":         0xd9fe8d99f663106a,
	"EX08/1/rs":          0x8bbb31df326e8190,
	"EX08/1/rsz":         0x8bbb31df326e8190,
	"EX08/1/rw":          0xb9c1d4653f313cce,
	"EX08/1/rwz":         0xd9f7228c5109a882,
	"EX08/7/b":           0xbb29f9ed08544f1b,
	"EX08/7/br":          0x4ec2047c22cf8a7b,
	"EX08/7/churn2":      0x1e4702f58d57e4a4,
	"EX08/7/compress2rs": 0x6ad95233a82ed015,
	"EX08/7/deep":        0xf161b61ce1f475ec,
	"EX08/7/drill":       0x5f7d6fb98bb4cf9a,
	"EX08/7/ex":          0x58bf8d10f6139363,
	"EX08/7/ex.b":        0x422c6d962467604d,
	"EX08/7/ex.br":       0x3fb85aa7a22e5a72,
	"EX08/7/ex.ex":       0x8943a3178648d05a,
	"EX08/7/ex.fr":       0x6c3121cc2e965697,
	"EX08/7/ex.rf":       0x266f3c7d56a417f8,
	"EX08/7/ex.rfz":      0x320e1ef108bc62d4,
	"EX08/7/ex.rs":       0x6c3121cc2e965697,
	"EX08/7/ex.rsz":      0x6c3121cc2e965697,
	"EX08/7/ex.rw":       0xe9f8485e18301850,
	"EX08/7/ex.rwz":      0x880bf0a1f22a1c79,
	"EX08/7/fr":          0x8bbb31df326e8190,
	"EX08/7/mix00":       0xe98f1f7261cbd1b2,
	"EX08/7/mix41":       0x1fa757bb857f6de0,
	"EX08/7/resyn2":      0x14c86bee0abde10b,
	"EX08/7/resyn3":      0xe4b589a37f73b8b8,
	"EX08/7/rf":          0x7e104b2f468624d2,
	"EX08/7/rfz":         0xd9fe8d99f663106a,
	"EX08/7/rs":          0x8bbb31df326e8190,
	"EX08/7/rsz":         0x8bbb31df326e8190,
	"EX08/7/rw":          0xb9c1d4653f313cce,
	"EX08/7/rwz":         0xbba4656a91b46ef3,
	"EX54/1/b":           0x7da3ee69c65c6613,
	"EX54/1/br":          0x51cd9f60095299f0,
	"EX54/1/churn2":      0xaf9c8cbdc519dc16,
	"EX54/1/compress2rs": 0x4051c0a4209c5213,
	"EX54/1/deep":        0x34a6c9b610f486fd,
	"EX54/1/drill":       0x958ff2ffb9c45c7e,
	"EX54/1/ex":          0x1ef63eb347ac5150,
	"EX54/1/ex.b":        0xad904b3be51f95ad,
	"EX54/1/ex.br":       0xb6ffbc4878b4b598,
	"EX54/1/ex.ex":       0x3332ab1be2640289,
	"EX54/1/ex.fr":       0xfbecde4d1e3eadb2,
	"EX54/1/ex.rf":       0xe172e0ada5c05dab,
	"EX54/1/ex.rfz":      0x86cb351298adf5bc,
	"EX54/1/ex.rs":       0xfbecde4d1e3eadb2,
	"EX54/1/ex.rsz":      0xfbecde4d1e3eadb2,
	"EX54/1/ex.rw":       0xbd1d974062bc9766,
	"EX54/1/ex.rwz":      0x142f02f79dbf19f9,
	"EX54/1/fr":          0x0c93dbbfe933287d,
	"EX54/1/mix00":       0x64c133b3044c7918,
	"EX54/1/mix41":       0x78ca82f77862569b,
	"EX54/1/resyn2":      0x836a94bfacb805ea,
	"EX54/1/resyn3":      0xeb53f96b679d9e1e,
	"EX54/1/rf":          0xd82f753722fdc63c,
	"EX54/1/rfz":         0x7a107c4ba3587d88,
	"EX54/1/rs":          0x0c93dbbfe933287d,
	"EX54/1/rsz":         0x0c93dbbfe933287d,
	"EX54/1/rw":          0x5fd7881a2c9b80e1,
	"EX54/1/rwz":         0x5c24368303cc4e29,
	"EX54/7/b":           0x7da3ee69c65c6613,
	"EX54/7/br":          0xb05486c71c432a5f,
	"EX54/7/churn2":      0xd2ef02e5665a9281,
	"EX54/7/compress2rs": 0xd8231562c0c42c9a,
	"EX54/7/deep":        0xc4bdd5591f4b4aa0,
	"EX54/7/drill":       0x958ff2ffb9c45c7e,
	"EX54/7/ex":          0xed1e5c3a2cdad141,
	"EX54/7/ex.b":        0x5fc00c668ccf7a9a,
	"EX54/7/ex.br":       0xfbb163a356b89ec8,
	"EX54/7/ex.ex":       0x6371b887eaab1ebf,
	"EX54/7/ex.fr":       0xa15c40d5590787e2,
	"EX54/7/ex.rf":       0xfe3fb6809381b67f,
	"EX54/7/ex.rfz":      0x74394b2a5e782eeb,
	"EX54/7/ex.rs":       0xa5e058c98d70c926,
	"EX54/7/ex.rsz":      0xa5e058c98d70c926,
	"EX54/7/ex.rw":       0x221e4b2ecaad854e,
	"EX54/7/ex.rwz":      0xc3ee77cc5d607f68,
	"EX54/7/fr":          0x0c93dbbfe933287d,
	"EX54/7/mix00":       0x43c380cb371f7799,
	"EX54/7/mix41":       0x78ca82f77862569b,
	"EX54/7/resyn2":      0xedf50f3c1ad9b702,
	"EX54/7/resyn3":      0xeb53f96b679d9e1e,
	"EX54/7/rf":          0xd82f753722fdc63c,
	"EX54/7/rfz":         0x7a107c4ba3587d88,
	"EX54/7/rs":          0x0c93dbbfe933287d,
	"EX54/7/rsz":         0x0c93dbbfe933287d,
	"EX54/7/rw":          0x5fd7881a2c9b80e1,
	"EX54/7/rwz":         0x3471caf63ba3367c,
}

func TestMoveOutputsGolden(t *testing.T) {
	recipes := map[string]Recipe{}
	for _, r := range Recipes() {
		recipes[r.Name] = r
	}
	got := map[string]uint64{}
	for _, name := range []string{"EX02", "EX08", "EX54"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build()
		for _, seed := range []int64{1, 7} {
			// The suite designs are already compact, so the catalog also
			// runs on an expanded copy, where rewriting, refactoring and
			// resubstitution find many cones to replace.
			ex := Expand(g, rand.New(rand.NewSource(seed+100)))
			for _, tr := range Catalog() {
				h := tr.Fn(g, rand.New(rand.NewSource(seed)))
				got[fmt.Sprintf("%s/%d/%s", name, seed, tr.Name)] = h.Hash()
				h = tr.Fn(ex, rand.New(rand.NewSource(seed)))
				got[fmt.Sprintf("%s/%d/ex.%s", name, seed, tr.Name)] = h.Hash()
			}
			for _, rn := range goldenRecipes {
				r, ok := recipes[rn]
				if !ok {
					t.Fatalf("recipe %q missing from the catalog", rn)
				}
				h, _ := r.ApplyTracked(g, rand.New(rand.NewSource(seed)))
				got[fmt.Sprintf("%s/%d/%s", name, seed, rn)] = h.Hash()
			}
		}
	}
	if len(got) != len(moveGolden) {
		t.Errorf("computed %d outputs, golden table has %d", len(got), len(moveGolden))
	}
	for k, want := range moveGolden {
		if got[k] != want {
			t.Errorf("%s: hash %#016x, want %#016x", k, got[k], want)
		}
	}
}
