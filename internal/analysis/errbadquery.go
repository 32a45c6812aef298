package analysis

import (
	"go/ast"
	"go/constant"
	"strings"
)

// ErrBadQuery flags error constructions that cannot satisfy
// errors.Is(err, ErrBadQuery) in the packages whose errors are, by
// contract, option/spec validation failures.
//
// Invariant: every rejection of a query spec — bad θ, bad shard count, bad
// backend costs, unknown algorithm — wraps the ErrBadQuery sentinel via %w,
// so callers (batch executors, the service layer to come) can distinguish
// "your request is malformed" from "the engine failed" with one errors.Is.
// The same discipline covers the failure side in internal/access: backend
// failures wrap the ErrBackend sentinel via %w (ErrListDown wraps it in
// turn), so retry and degradation layers branch on errors.Is instead of
// error text. PR 2 fixed a round of bare errors of exactly this kind; the
// analyzer keeps them out. A bare `errors.New` or a `fmt.Errorf` without a
// %w verb in a scoped package is flagged; genuinely non-validation,
// non-backend errors (and the sentinels themselves) carry //lint:notbadquery
// with the reason.
var ErrBadQuery = &Analyzer{
	Name: "errbadquery",
	Key:  "notbadquery",
	Doc: "errors in repro, internal/core, internal/shard, internal/access, " +
		"internal/traffic and cmd/topk must wrap their sentinel (ErrBadQuery for validation, " +
		"ErrBackend for backend failures) via %w; flag errors.New and " +
		"fmt.Errorf without %w " +
		"(//lint:notbadquery <reason> for genuine unsentineled errors)",
	Scope: []string{"repro", "repro/internal/core", "repro/internal/shard", "repro/internal/access", "repro/internal/traffic", "repro/cmd/topk"},
	Run:   runErrBadQuery,
}

func runErrBadQuery(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case pass.isPkgCall(call, "errors", "New"):
				pass.Reportf(call.Pos(),
					"errors.New cannot wrap ErrBadQuery; use fmt.Errorf(\"%%w: ...\", ErrBadQuery) or annotate //lint:notbadquery <reason>")
			case pass.isPkgCall(call, "fmt", "Errorf") && len(call.Args) > 0:
				tv, recorded := pass.TypesInfo.Types[call.Args[0]]
				if !recorded || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true // non-constant format: cannot judge statically
				}
				if !strings.Contains(constant.StringVal(tv.Value), "%w") {
					pass.Reportf(call.Pos(),
						"fmt.Errorf without %%w cannot wrap ErrBadQuery; wrap the sentinel or annotate //lint:notbadquery <reason>")
				}
			}
			return true
		})
	}
	return nil
}
