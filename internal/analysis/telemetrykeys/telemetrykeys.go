// Package telemetrykeys rejects raw string literals as telemetry
// names: instrument names and solver event kinds passed to
// Registry.Counter/Timer/Histogram or Tracer.Emit, span kinds passed to
// StartSpan (the package function or the Tracer method), structured-log
// event names passed to Logger.Log, and structured-log field names
// passed to the Field constructors (String, Int, Float, Bool, Dur) must
// all be constants declared in internal/telemetry (keys.go). PR 1
// scattered dotted keys as literals across six layers; the
// "fettoy.solve" trace kind next to the "fettoy.solves" counter shows
// how close typo and plural drift then sits to silently splitting a
// metric — and a drifting span kind or log field name splits a trace
// query the same way. With the registry central and literals banned,
// drift is a compile^W lint failure.
//
// Dynamic per-worker keys remain expressible as
// fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, w): Sprintf is
// accepted exactly when its format argument is itself a registry
// constant.
package telemetrykeys

import (
	"fmt"
	"go/ast"

	"cntfet/internal/analysis"
)

// TelemetryPath is the package whose constants are the key registry.
const TelemetryPath = "cntfet/internal/telemetry"

// keyMethodArg maps telemetry methods (with receiver) to the index of
// the argument naming an instrument, kind or event.
var keyMethodArg = map[string]int{
	"Counter":   0, // Registry.Counter(name)
	"Gauge":     0, // Registry.Gauge(name)
	"Timer":     0, // Registry.Timer(name)
	"Histogram": 0, // Registry.Histogram(name, bounds)
	"Emit":      0, // Tracer.Emit(kind, fields...)
	"StartSpan": 1, // Tracer.StartSpan(ctx, kind)
	"Log":       0, // Logger.Log(event, fields...)
}

// keyFuncArg is the same for package-level functions: the span entry
// point and the structured-log field constructors.
var keyFuncArg = map[string]int{
	"StartSpan": 1, // StartSpan(ctx, kind)
	"String":    0, // String(key, v)
	"Int":       0,
	"Float":     0,
	"Bool":      0,
	"Dur":       0,
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "telemetrykeys",
	Doc: "telemetry instrument names, span kinds and log field names must be " +
		"constants declared in internal/telemetry/keys.go, not string literals",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	if pkg.Path == TelemetryPath {
		// The registry package itself only declares the keys; its tests
		// (excluded from analysis anyway) mint ad-hoc names on purpose.
		return nil
	}
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := analysis.CalleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != TelemetryPath {
				return true
			}
			var idx int
			if fn.Signature().Recv() != nil {
				idx, ok = keyMethodArg[fn.Name()]
			} else {
				idx, ok = keyFuncArg[fn.Name()]
			}
			if !ok || len(call.Args) <= idx {
				return true
			}
			arg := call.Args[idx]
			if !isRegistryKey(pass, arg) {
				pass.Reportf(arg.Pos(),
					"telemetry %s name %s must be a constant from %s (keys.go), not %s",
					fn.Name(), exprString(arg), TelemetryPath, describe(pass, arg))
			}
			return true
		})
	}
	return nil
}

// isRegistryKey accepts a reference to a telemetry-package constant, or
// fmt.Sprintf of such a constant (the per-worker attribution pattern).
func isRegistryKey(pass *analysis.Pass, expr ast.Expr) bool {
	info := pass.Pkg.Info
	expr = ast.Unparen(expr)
	if analysis.IsConstOfPackage(info, expr, TelemetryPath) {
		return true
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn := analysis.CalleeFunc(info, call); analysis.IsPkgFunc(fn, "fmt", "Sprintf") {
		return analysis.IsConstOfPackage(info, call.Args[0], TelemetryPath)
	}
	return false
}

func describe(pass *analysis.Pass, expr ast.Expr) string {
	tv, ok := pass.Pkg.Info.Types[expr]
	if ok && tv.Value != nil {
		return fmt.Sprintf("the literal %s", tv.Value)
	}
	return "a computed value"
}

func exprString(expr ast.Expr) string {
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		return fmt.Sprintf("%q", id.Name)
	}
	return "argument"
}
