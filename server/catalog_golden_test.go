package server

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/dataset"
)

var updateCatalogGolden = flag.Bool("update-catalog-golden", false,
	"rewrite testdata/catalog_golden.json from the responses of the code under test")

// TestCatalogGoldenDigests pins the catalog and inference wire format
// byte for byte on the small preset: both catalog listings, the three
// algorithms' /infer bodies, and the error bodies whose text clients
// match on. The committed digests were generated on the commit before
// the algorithm catalog became an instance of experiment.Registry, so
// the merge is proven identical rather than spot-checked by name.
func TestCatalogGoldenDigests(t *testing.T) {
	ts := httptest.NewServer(New(dataset.NewPool(dataset.Builtin(), 1)))
	defer ts.Close()

	requests := []string{
		"GET /experiments",
		"GET /infer",
		"POST /infer/gao",
		"POST /infer/rank",
		"POST /infer/pari",
		`POST /infer/gao {"l": 2}`,
		"POST /infer/nope",
		`POST /infer/gao {"bogus": 1}`,
		"POST /run/nope",
		`POST /run/table5 {"providers": 1}`,
		`POST /run/table6 {"bogus": 1}`,
		"POST /run/inferbakeoff?algo=nope",
		"POST /run/inferensemble?algo=gao",
	}
	got := map[string]string{}
	for _, req := range requests {
		method, rest, _ := strings.Cut(req, " ")
		path, body, _ := strings.Cut(rest, " ")
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		url := ts.URL + path + sep + "dataset=small"
		var status int
		var resp []byte
		if method == http.MethodGet {
			status, resp = get(t, url)
		} else {
			status, resp = post(t, url, body)
		}
		got[req] = bodyDigest(append([]byte(fmt.Sprintf("%d\n", status)), resp...))
	}
	checkGoldenDigests(t, "testdata/catalog_golden.json", got, *updateCatalogGolden)
}
