package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is pass 1 of the two-pass facts engine (DESIGN.md §16): one
// walk over every analyzed package computes a per-function summary — the
// facts — and pass-2 analyzers (hotpathalloc, ctxflow, obsnames) consume
// them across package boundaries.
//
// Facts are keyed by types.Object, canonicalized through a stable
// (package path, receiver, name) key: the loader type-checks each target
// package from source but resolves its imports from export data, so the
// *types.Func a call site names and the *types.Func of the callee's own
// declaration are distinct objects describing the same function. The
// canonical key makes them hit the same fact, which is what lets an
// analyzer follow a call from internal/serve into rpm and onward into
// internal/core without golang.org/x/tools-style facts serialization.

// AllocSite is one syntactic construct that may allocate, recorded where
// it appears in a function body.
type AllocSite struct {
	Pos  token.Pos
	What string // human-readable kind: "make", "append may grow", ...
}

// ResolvedCall is a statically resolved call to a named function or
// method (possibly in another, or an unanalyzed, package).
type ResolvedCall struct {
	Pos token.Pos
	Fn  *types.Func
}

// DynamicCall is a call whose callee cannot be resolved statically: a
// func-typed value or an interface method.
type DynamicCall struct {
	Pos  token.Pos
	Desc string
}

// ObsRecord is one obs-recording call site: a metric/span registration
// whose first argument names the series being recorded.
type ObsRecord struct {
	Pos     token.Pos
	PkgPath string
	Kind    string   // "Counter", "Gauge", "Pool", "Summary", "StartSpan", "Start", "Child"
	Name    ast.Expr // the name argument
}

// FuncFact is the pass-1 summary of one function declaration.
type FuncFact struct {
	Fn      *types.Func
	PkgPath string
	Decl    *ast.FuncDecl

	// Hotpath is set when the declaration carries a //rpmlint:hotpath
	// marker: the function (and everything it calls) must be
	// allocation-free.
	Hotpath    bool
	HotpathPos token.Pos

	// AcceptsCtx reports a context.Context parameter in the signature.
	AcceptsCtx bool
	// CtxVariant is the sibling <Name>Context / <Name>Ctx function (same
	// package, same receiver type) that accepts a context, when one
	// exists. A caller holding a ctx must prefer the variant.
	CtxVariant *types.Func

	// Allocs are the body's own potentially-allocating constructs;
	// Calls/Dynamic the outgoing edges hotpathalloc walks.
	Allocs  []AllocSite
	Calls   []ResolvedCall
	Dynamic []DynamicCall
}

// Facts is the pass-1 result over all analyzed packages.
type Facts struct {
	cfg  Config
	fset *token.FileSet

	funcs map[string]*FuncFact // canonical key -> fact
	// roots are the hotpath-marked functions in deterministic order
	// (package path, then position).
	roots []*FuncFact

	// obsRecords is every recording site seen.
	obsRecords []ObsRecord

	// recordedConsts holds the canonical keys of string constants
	// referenced inside the name argument of at least one obs-recording
	// call (the "is this obsnames.go constant actually recorded?" index).
	recordedConsts map[string]bool

	// hotpathReported dedupes hotpathalloc diagnostics across the
	// per-package passes (one finding per site, whichever root reaches
	// it first).
	hotpathReported map[token.Pos]bool
}

// canonKey builds the cross-package identity of a function or constant:
// import path, receiver type name (for methods), and name. Export-data
// objects and source-checked objects of the same symbol agree on it.
func canonKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	recv := ""
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				recv = named.Obj().Name()
			}
		}
	}
	return obj.Pkg().Path() + "\x00" + recv + "\x00" + obj.Name()
}

// FuncFact returns the summary of the function obj resolves to, or nil.
// obj may come from either side of an import boundary.
func (f *Facts) FuncFact(obj types.Object) *FuncFact {
	if f == nil {
		return nil
	}
	return f.funcs[canonKey(obj)]
}

// HotpathRoots returns the //rpmlint:hotpath-marked functions in
// deterministic order.
func (f *Facts) HotpathRoots() []*FuncFact { return f.roots }

const hotpathMarker = "//rpmlint:hotpath"

// ComputeFacts runs pass 1 over pkgs.
func ComputeFacts(cfg Config, pkgs []*Package) *Facts {
	f := &Facts{
		cfg:             cfg,
		funcs:           map[string]*FuncFact{},
		recordedConsts:  map[string]bool{},
		hotpathReported: map[token.Pos]bool{},
	}
	if len(pkgs) > 0 {
		f.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &FuncFact{Fn: obj, PkgPath: pkg.ImportPath, Decl: fd}
				ff.Hotpath, ff.HotpathPos = hotpathMarked(fd)
				ff.AcceptsCtx = acceptsCtx(obj)
				f.collectBody(pkg, ff)
				f.funcs[canonKey(obj)] = ff
				if ff.Hotpath {
					f.roots = append(f.roots, ff)
				}
			}
		}
	}
	f.linkCtxVariants(pkgs)
	f.collectRecordSites(pkgs)
	sort.Slice(f.roots, func(i, j int) bool {
		a, b := f.roots[i], f.roots[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	return f
}

// hotpathMarked reports whether the declaration's doc comment carries
// the //rpmlint:hotpath marker.
func hotpathMarked(fd *ast.FuncDecl) (bool, token.Pos) {
	if fd.Doc == nil {
		return false, token.NoPos
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true, c.Pos()
		}
	}
	return false, token.NoPos
}

// acceptsCtx reports a context.Context parameter anywhere in the
// signature.
func acceptsCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// linkCtxVariants pairs each analyzed function F (no ctx parameter) with
// its sibling <F>Context / <F>Ctx declaration when one exists in the
// same package with the same receiver type. The pair fact is what lets
// ctxflow flag a ctx-holding caller that drops its context by calling
// the plain variant — across package boundaries.
func (f *Facts) linkCtxVariants(pkgs []*Package) {
	for key, ff := range f.funcs {
		if ff.AcceptsCtx {
			continue
		}
		for _, suffix := range []string{"Context", "Ctx"} {
			// The canonical key ends in \x00<name>; the variant shares
			// everything but the name.
			vkey := key + suffix
			if vf, ok := f.funcs[vkey]; ok && vf.AcceptsCtx {
				ff.CtxVariant = vf.Fn
				break
			}
		}
	}
}

// obsRecordMethod maps obs receiver type -> method -> true for the
// recording entry points whose first argument is a metric/span name.
var obsRecordMethods = map[string]map[string]bool{
	"Registry": {"Counter": true, "Gauge": true, "Pool": true, "Summary": true, "StartSpan": true},
	"Span":     {"Start": true, "Child": true},
}

// recvTypeName returns the name of fn's receiver's named type ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// collectRecordSites walks every file for obs-recording call sites,
// filling the global indexes the obsnames analyzer consumes.
func (f *Facts) collectRecordSites(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != f.cfg.ObsPkg {
					return true
				}
				if m := obsRecordMethods[recvTypeName(fn)]; m != nil && m[fn.Name()] {
					f.obsRecords = append(f.obsRecords, ObsRecord{
						Pos: call.Pos(), PkgPath: pkg.ImportPath,
						Kind: fn.Name(), Name: call.Args[0],
					})
					for _, c := range constsIn(pkg.Info, call.Args[0]) {
						f.recordedConsts[canonKey(c)] = true
					}
				}
				return true
			})
		}
	}
}

// calleeFunc resolves the *types.Func a call invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// constsIn returns the string constants referenced anywhere inside e.
func constsIn(info *types.Info, e ast.Expr) []*types.Const {
	var out []*types.Const
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := info.Uses[id].(*types.Const); ok {
			if basic, ok := c.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// declaredInObsNames reports whether the constant's declaration sits in
// a file named obsnames.go. For source-checked packages the position is
// exact; for export-data imports it is best-effort (an unknown filename
// is accepted — running over ./... makes every repo package source-
// checked, so the lenient path only triggers on exotic subset runs).
func (f *Facts) declaredInObsNames(c *types.Const) bool {
	pos := f.fset.Position(c.Pos())
	if pos.Filename == "" {
		return true
	}
	return filepath.Base(pos.Filename) == "obsnames.go"
}

// collectBody fills the allocation and call-edge summary of one
// function body. Closure bodies are not descended into for allocation
// facts: the closure literal itself is already an allocation site, and
// annotating (or removing) it is the hot-path-relevant decision.
func (f *Facts) collectBody(pkg *Package, ff *FuncFact) {
	info := pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "closure literal allocates"})
			return false
		case *ast.GoStmt:
			ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "go statement allocates a goroutine"})
		case *ast.CompositeLit:
			switch info.TypeOf(v).Underlying().(type) {
			case *types.Slice:
				ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "slice literal allocates"})
			case *types.Map:
				ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "map literal allocates"})
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "&composite literal escapes to the heap"})
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isNonConstString(info, v) {
				ff.Allocs = append(ff.Allocs, AllocSite{Pos: v.Pos(), What: "string concatenation allocates"})
			}
		case *ast.CallExpr:
			return f.collectCall(pkg, ff, v, walk)
		}
		return true
	}
	ast.Inspect(ff.Decl.Body, walk)
}

// collectCall classifies one call expression inside a summarized body,
// returning whether the walker should descend into the arguments.
func (f *Facts) collectCall(pkg *Package, ff *FuncFact, call *ast.CallExpr, walk func(ast.Node) bool) bool {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion? string<->[]byte/[]rune copies; conversion into an
	// interface boxes non-pointer-shaped values.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		f.collectConversion(info, ff, call, tv.Type)
		return true
	}

	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}

	switch o := obj.(type) {
	case *types.Builtin:
		switch o.Name() {
		case "make":
			ff.Allocs = append(ff.Allocs, AllocSite{Pos: call.Pos(), What: "make allocates"})
		case "new":
			ff.Allocs = append(ff.Allocs, AllocSite{Pos: call.Pos(), What: "new allocates"})
		case "append":
			if !isRecycledAppend(call) {
				ff.Allocs = append(ff.Allocs, AllocSite{Pos: call.Pos(), What: "append may grow its backing array"})
			}
		case "panic":
			// Failure path by definition: what it allocates never runs in
			// a healthy hot loop. Skip the argument subtree too, so
			// panic(fmt.Sprintf(...)) guards stay unflagged.
			return false
		}
		return true
	case *types.Func:
		ff.Calls = append(ff.Calls, ResolvedCall{Pos: call.Pos(), Fn: o})
		f.collectBoxing(info, ff, call, o)
		return true
	case nil:
		// Func-typed value or an unresolvable expression.
		ff.Dynamic = append(ff.Dynamic, DynamicCall{Pos: call.Pos(), Desc: describeDynamic(info, fun)})
		return true
	default:
		// *types.Var: calling through a func-typed variable or field;
		// interface methods resolve to *types.Func via Uses, so this is
		// the func-value case.
		ff.Dynamic = append(ff.Dynamic, DynamicCall{Pos: call.Pos(), Desc: describeDynamic(info, fun)})
		return true
	}
}

// collectConversion records allocating type conversions.
func (f *Facts) collectConversion(info *types.Info, ff *FuncFact, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := info.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isStringSliceConv(toU, fromU) || isStringSliceConv(fromU, toU) {
		ff.Allocs = append(ff.Allocs, AllocSite{Pos: call.Pos(), What: "string/slice conversion copies"})
		return
	}
	if types.IsInterface(toU) && !types.IsInterface(fromU) && !pointerShaped(fromU) {
		ff.Allocs = append(ff.Allocs, AllocSite{Pos: call.Pos(), What: "interface conversion boxes a value"})
	}
}

// collectBoxing flags call arguments implicitly boxed into interface
// parameters (the fmt.Println(x) shape without naming fmt).
func (f *Facts) collectBoxing(info *types.Info, ff *FuncFact, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || pointerShaped(at.Underlying()) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			// Constants box through read-only static data in practice
			// (and a constant argument is a deliberate choice, not a
			// per-iteration allocation).
			continue
		}
		if basicUntypedNil(at) {
			continue
		}
		ff.Allocs = append(ff.Allocs, AllocSite{Pos: arg.Pos(), What: "argument boxed into interface parameter"})
	}
}

func basicUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t fit in an interface word
// without a heap box.
func pointerShaped(t types.Type) bool {
	switch t.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// isStringSliceConv reports a string <-> []byte/[]rune conversion pair.
func isStringSliceConv(to, from types.Type) bool {
	tb, ok := to.(*types.Basic)
	if !ok || tb.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := from.(*types.Slice)
	if !ok {
		return false
	}
	eb, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (eb.Kind() == types.Byte || eb.Kind() == types.Rune || eb.Kind() == types.Uint8 || eb.Kind() == types.Int32)
}

// isRecycledAppend recognizes the canonical buffer-reuse idiom
// append(x[:0], ...): growth is bounded by the high-water mark of a
// pooled buffer, which is the repo's accepted steady-state-zero pattern.
func isRecycledAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High == nil || sl.Slice3 {
		return false
	}
	lit, ok := sl.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// isNonConstString reports whether e is a non-constant string-typed
// expression (constant folding happens at compile time and allocates
// nothing).
func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// describeDynamic renders an unresolvable callee for diagnostics.
func describeDynamic(info *types.Info, fun ast.Expr) string {
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return "interface method " + sel.Sel.Name
			}
		}
		return "func value " + sel.Sel.Name
	}
	if id, ok := fun.(*ast.Ident); ok {
		return "func value " + id.Name
	}
	return "dynamic call"
}
