package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the framework: a lightweight
// intra-package callgraph over the declared functions and methods of
// one package. It is built from the syntax and type information the
// loader already produced — no extra passes over the go tool, no
// x/tools dependency.
//
// The graph is deliberately conservative and cheap:
//
//   - Nodes are the package's own *types.Func declarations (functions
//     and methods with bodies). Imported functions are edge targets
//     only insofar as analyzers resolve them per call site; the graph
//     does not model them.
//   - An edge A -> B exists when A's body (including any function
//     literals nested in it) mentions B — a direct call, a method
//     call resolved statically, or a bare function/method value
//     reference (callbacks count: a function passed somewhere may be
//     called there). Closures attribute to their enclosing
//     declaration, so reachability through a worker FuncLit is the
//     enclosing scheduler's reachability.
//   - Dynamic calls (interface methods, func-typed values) have no
//     edge; analyzers that need soundness there must treat them as
//     unknowns at the call site (see zeroalloc's dynamic-call rule).
type CallGraph struct {
	pkg   *Package
	nodes map[*types.Func]*FuncNode
}

// FuncNode is one declared function or method of the package.
type FuncNode struct {
	// Fn is the type-checker object; Decl its syntax (always non-nil,
	// with a non-nil body).
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Calls are the same-package functions this one mentions, deduped,
	// in source order of first mention.
	Calls []*types.Func
}

// CallGraph returns the package's callgraph, built on first use and
// cached.
func (pkg *Package) CallGraph() *CallGraph {
	if pkg.callgraph != nil {
		return pkg.callgraph
	}
	cg := &CallGraph{
		pkg:   pkg,
		nodes: map[*types.Func]*FuncNode{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Fn: fn, Decl: fd}
			seen := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				callee, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || callee.Pkg() != pkg.Types || seen[callee] {
					return true
				}
				seen[callee] = true
				node.Calls = append(node.Calls, callee)
				return true
			})
			cg.nodes[fn] = node
		}
	}
	pkg.callgraph = cg
	return cg
}

// Node returns the graph node of fn, or nil for functions the package
// does not declare (imports, interface methods, body-less decls).
func (cg *CallGraph) Node(fn *types.Func) *FuncNode { return cg.nodes[fn] }

// Nodes returns every declared function, sorted by source position so
// iteration order is deterministic.
func (cg *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(cg.nodes))
	for _, n := range cg.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Reachable returns the transitive closure of the given roots along
// call edges, roots included.
func (cg *CallGraph) Reachable(roots ...*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fn == nil || seen[fn] {
			continue
		}
		seen[fn] = true
		if node := cg.nodes[fn]; node != nil {
			stack = append(stack, node.Calls...)
		}
	}
	return seen
}

// ReachableFromExported returns every function reachable from the
// package's exported functions and methods (plus main and init, which
// are entry points in their packages) — the set whose behaviour is
// observable across the package boundary.
func (cg *CallGraph) ReachableFromExported() map[*types.Func]bool {
	var roots []*types.Func
	for fn := range cg.nodes {
		if ast.IsExported(fn.Name()) || fn.Name() == "main" || fn.Name() == "init" {
			roots = append(roots, fn)
		}
	}
	return cg.Reachable(roots...)
}
