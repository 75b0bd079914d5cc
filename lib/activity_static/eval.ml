(* The kernel evaluator: one abstract walk of a kernel's post-checkpoint
   cone — [run] followed by [output] — over the extracted {!Model},
   instantiated once per abstract domain.

   The walk owns what every static question about the cone shares:
   value shapes (scalars, state-array handles, local arrays, refs,
   closures), pattern binding, closure application, branch and loop
   passes, ident and field resolution, the {!Effects} table,
   unknown-callee conservatism and the flow-insensitive field edge
   graph.  A domain supplies an annotation on values, a flow-sensitive
   state saved and joined at branches, and its reaction to the events
   the walk raises.

   Everything unrecognized degrades toward more reads, more edges and
   more leaks, never fewer; {!Incomplete} aborts the app when even that
   is impossible (missing [run]/[output], fuel exhaustion). *)

open Parsetree
module SS = Set.Make (String)
module SM = Map.Make (String)

exception Incomplete of string

type 'a value = { taint : SS.t; sh : 'a shape; ann : 'a }

and 'a shape =
  | Scalar_sh
  | Field_arr of string
  | Local_arr of 'a cell
  | State_sh
  | Ref_sh of 'a cell
  | Closure_sh of 'a closure

and 'a cell = { mutable c_val : 'a value }

and 'a closure = {
  cl_params : (Asttypes.arg_label * pattern) list;
  cl_body : expression;
  cl_env : 'a value SM.t;
  cl_rec : string option;
}

type consumer = Branch | Subscript
type boxing = Consume | Hold

(* Taints reachable through a value, descending refs and local
   arrays. *)
let rec deep_taint v =
  match v.sh with
  | Ref_sh c | Local_arr c -> SS.union v.taint (deep_taint c.c_val)
  | Field_arr f -> SS.add f v.taint
  | _ -> v.taint

let positional vals =
  List.filter_map
    (fun (label, v) ->
      match label with Asttypes.Nolabel -> Some v | _ -> None)
    vals

module type DOMAIN = sig
  type t
  type ann
  type snapshot

  val resolve_functor_params : bool
  val boxing : boxing
  val escape_effect : string
  val top : ann
  val int_const : int -> ann
  val const_of : ann -> int option
  val join_ann : ann -> ann -> ann
  val pure : string -> (Asttypes.arg_label * ann value) list -> ann
  val loop_index : t -> lo:ann -> hi:ann -> Asttypes.direction_flag -> ann
  val read_all : t -> string -> unit
  val read_elem : t -> string -> ann -> unit
  val kill : t -> string -> unit
  val leak : t -> SS.t -> unit
  val discrete : t -> Location.t -> consumer -> string -> SS.t -> unit
  val call :
    t -> Location.t -> string -> (Asttypes.arg_label * ann value) list -> unit
  val save : t -> snapshot
  val restore : t -> snapshot -> unit
  val join : snapshot -> snapshot -> snapshot
end

type walk = {
  model : Model.t;
  edges : (string, SS.t ref) Hashtbl.t;  (* dst -> sources *)
  notes : string list;
}

let closure (w : walk) seed =
  let visited = Hashtbl.create 16 in
  let rec go dst =
    if not (Hashtbl.mem visited dst) then begin
      Hashtbl.add visited dst ();
      match Hashtbl.find_opt w.edges dst with
      | Some srcs -> SS.iter go !srcs
      | None -> ()
    end
  in
  SS.iter go seed;
  Hashtbl.fold
    (fun f _ acc -> if Model.is_state_field w.model f then SS.add f acc else acc)
    visited SS.empty

let edges (w : walk) =
  Hashtbl.fold (fun dst srcs acc -> (dst, !srcs) :: acc) w.edges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- pattern binding ------------------------------------------------- *)

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it' (p : pattern) ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it' p);
    }
  in
  it.pat it p;
  List.rev !acc

let direct_children (e : expression) =
  let acc = ref [] in
  let collector =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ ce -> acc := ce :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr collector e;
  List.rev !acc

let split_closure_expr env (e : expression) =
  let rec peel params (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (label, _, pat, body) -> peel ((label, pat) :: params) body
    | Pexp_newtype (_, body) -> peel params body
    | _ -> (List.rev params, e)
  in
  match peel [] e with
  | [], _ -> None
  | params, body ->
      Some { cl_params = params; cl_body = body; cl_env = env; cl_rec = None }

let split_closure env rec_flag vb =
  match (Model.binding_name_of vb.pvb_pat, vb.pvb_expr.pexp_desc) with
  | Some name, (Pexp_fun _ | Pexp_function _) -> (
      match split_closure_expr env vb.pvb_expr with
      | Some c ->
          Some
            {
              c with
              cl_rec =
                (if rec_flag = Asttypes.Recursive then Some name else None);
            }
      | None -> None)
  | _ -> None

let closure_of_fn name (fn : Model.fn) =
  {
    cl_params = fn.Model.fn_params;
    cl_body = fn.Model.fn_body;
    cl_env = SM.empty;
    cl_rec = Some name;
  }

let loop_passes = 3
let max_depth = 80

module Make (D : DOMAIN) = struct
  let opaque = { taint = SS.empty; sh = Scalar_sh; ann = D.top }
  let scalar taint = { opaque with taint }
  let shaped sh = { opaque with sh }

  type ctx = {
    model : Model.t;
    dom : D.t;
    edges : (string, SS.t ref) Hashtbl.t;
    mutable notes : string list;
    mutable fuel : int;
    mutable depth : int;
  }

  let note ctx msg =
    if not (List.mem msg ctx.notes) then ctx.notes <- ctx.notes @ [ msg ]

  let add_edge ctx srcs dst =
    if not (SS.is_empty srcs) then
      match Hashtbl.find_opt ctx.edges dst with
      | Some r -> r := SS.union !r srcs
      | None -> Hashtbl.add ctx.edges dst (ref srcs)

  let taint_of vals =
    List.fold_left (fun acc (_, v) -> SS.union acc (deep_taint v)) SS.empty vals

  (* The state record escaped into code we cannot see: every field may
     be read, written from every other, and leaks. *)
  let state_escape ctx what =
    note ctx (Printf.sprintf "state escaped to %s: %s" what D.escape_effect);
    let fields = Hashtbl.fold (fun f _ acc -> f :: acc) ctx.model.Model.fields [] in
    let all = SS.of_list fields in
    D.leak ctx.dom all;
    List.iter
      (fun f ->
        D.read_all ctx.dom f;
        add_edge ctx all f)
      fields;
    all

  (* A value flowing into opaque code: arrays are fully read, the state
     escapes, the whole taint leaks. *)
  let rec use_value ctx v =
    (match v.sh with
    | Field_arr f -> D.read_all ctx.dom f
    | State_sh -> ignore (state_escape ctx "an opaque context")
    | Ref_sh c -> ignore (use_value ctx c.c_val)
    | Local_arr _ | Closure_sh _ | Scalar_sh -> ());
    let t = deep_taint v in
    D.leak ctx.dom t;
    t

  (* A value boxed into a structure the walk does not track (tuple,
     record, constructor, unmodeled construct).  Under [Hold] scalar
     taint merges into the structure's taint and keeps flowing; only
     array handles and the state record leak, because their later
     element reads happen where the walk cannot see them. *)
  let box ctx v =
    match D.boxing with
    | Consume -> use_value ctx v
    | Hold ->
        (match v.sh with
        | Field_arr f -> D.leak ctx.dom (SS.singleton f)
        | State_sh -> ignore (state_escape ctx "a structure")
        | Scalar_sh | Local_arr _ | Ref_sh _ | Closure_sh _ -> ());
        deep_taint v

  let join_value ctx a b =
    let taint = SS.union a.taint b.taint in
    let sh =
      match (a.sh, b.sh) with
      | Field_arr x, Field_arr y when x = y -> a.sh
      | Local_arr ca, Local_arr cb | Ref_sh ca, Ref_sh cb ->
          (* Cell contents merge taints only; shape keeps the first
             side. *)
          if ca != cb then
            ca.c_val <- { ca.c_val with taint = SS.union ca.c_val.taint cb.c_val.taint };
          a.sh
      | State_sh, State_sh -> State_sh
      | x, y when x == y -> x
      | x, y ->
          (* Shapes disagree: conservatively consume both sides so no
             array identity is silently lost. *)
          if x <> Scalar_sh then ignore (use_value ctx a);
          if y <> Scalar_sh then ignore (use_value ctx b);
          Scalar_sh
    in
    { taint; sh; ann = D.join_ann a.ann b.ann }

  let cell_join ctx c v = c.c_val <- join_value ctx c.c_val v

  let rec bind_pattern env (p : pattern) v =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> SM.add txt v env
    | Ppat_constraint (inner, _) -> bind_pattern env inner v
    | Ppat_alias (inner, { txt; _ }) -> bind_pattern (SM.add txt v env) inner v
    | Ppat_any -> env
    | _ ->
        (* Destructuring loses shape but keeps taint. *)
        List.fold_left
          (fun env name -> SM.add name (scalar v.taint) env)
          env (pattern_vars p)

  let nolabel vals = List.map (fun v -> (Asttypes.Nolabel, v)) vals

  (* ---- the walk ------------------------------------------------------- *)

  let rec interp ctx env (e : expression) =
    ctx.fuel <- ctx.fuel - 1;
    if ctx.fuel <= 0 then raise (Incomplete "interpretation fuel exhausted");
    match e.pexp_desc with
    | Pexp_constant (Pconst_integer (text, None)) -> (
        match int_of_string_opt text with
        | Some n -> { opaque with ann = D.int_const n }
        | None -> opaque)
    | Pexp_constant _ -> opaque
    | Pexp_ident { txt; _ } -> eval_ident ctx env txt
    | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) ->
        interp ctx env inner
    | Pexp_open (_, body) -> interp ctx env body
    | Pexp_sequence (a, b) ->
        ignore (interp ctx env a);
        interp ctx env b
    | Pexp_let (rec_flag, vbs, body) ->
        let env' =
          List.fold_left
            (fun acc vb ->
              let v =
                match split_closure env rec_flag vb with
                | Some c -> shaped (Closure_sh c)
                | None -> interp ctx env vb.pvb_expr
              in
              bind_pattern acc vb.pvb_pat v)
            env vbs
        in
        interp ctx env' body
    | Pexp_fun _ | Pexp_function _ -> (
        match split_closure_expr env e with
        | Some c -> shaped (Closure_sh c)
        | None -> opaque)
    | Pexp_field (base, { txt; _ }) -> eval_field ctx env base txt
    | Pexp_setfield (base, { txt; _ }, rhs) ->
        let bv = interp ctx env base in
        let rv = interp ctx env rhs in
        let f = Model.last_segment txt in
        (match bv.sh with
        | State_sh when Model.is_state_field ctx.model f ->
            D.kill ctx.dom f;
            add_edge ctx (deep_taint rv) f
        | State_sh -> ignore (state_escape ctx "a set of an unknown field")
        | _ -> ignore (box ctx rv));
        opaque
    | Pexp_ifthenelse (cond, then_e, else_e) ->
        let cv = interp ctx env cond in
        D.discrete ctx.dom cond.pexp_loc Branch "if condition" cv.taint;
        let before = D.save ctx.dom in
        let tv = interp ctx env then_e in
        let after_then = D.save ctx.dom in
        D.restore ctx.dom before;
        let ev =
          match else_e with Some b -> interp ctx env b | None -> opaque
        in
        D.restore ctx.dom (D.join after_then (D.save ctx.dom));
        let v = join_value ctx tv ev in
        { v with taint = SS.union v.taint cv.taint }
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let sv = interp ctx env scrut in
        if
          List.length cases > 1
          || List.exists (fun (c : case) -> c.pc_guard <> None) cases
        then D.discrete ctx.dom scrut.pexp_loc Branch "match scrutinee" sv.taint;
        interp_cases ctx env sv cases
    | Pexp_while (cond, body) ->
        interp_loop ctx env ~var:None ~cond:(Some cond) body
    | Pexp_for (pat, lo, hi, dir, body) ->
        let lov = interp ctx env lo in
        let hiv = interp ctx env hi in
        let taint = SS.union lov.taint hiv.taint in
        D.discrete ctx.dom e.pexp_loc Branch "for-loop bound" taint;
        let ann = D.loop_index ctx.dom ~lo:lov.ann ~hi:hiv.ann dir in
        interp_loop ctx env
          ~var:(Some (pat, { taint; sh = Scalar_sh; ann }))
          ~cond:None body
    | Pexp_apply (fn, args) -> interp_apply ctx env ~loc:e.pexp_loc fn args
    | Pexp_tuple parts ->
        scalar
          (List.fold_left
             (fun acc p -> SS.union acc (box ctx (interp ctx env p)))
             SS.empty parts)
    | Pexp_construct (_, None) -> opaque
    | Pexp_construct (_, Some arg) -> scalar (box ctx (interp ctx env arg))
    | Pexp_array parts ->
        let elem =
          List.fold_left
            (fun acc p -> join_value ctx acc (interp ctx env p))
            opaque parts
        in
        shaped (Local_arr { c_val = elem })
    | Pexp_assert cond ->
        let cv = interp ctx env cond in
        D.discrete ctx.dom cond.pexp_loc Branch "assert condition" cv.taint;
        opaque
    | Pexp_lazy body -> interp ctx env body
    | Pexp_record (fields, base) ->
        let taint =
          List.fold_left
            (fun acc (_, fv) -> SS.union acc (box ctx (interp ctx env fv)))
            SS.empty fields
        in
        let taint =
          match base with
          | Some b -> SS.union taint (deep_taint (interp ctx env b))
          | None -> taint
        in
        scalar taint
    | _ ->
        (* Constructs outside the modeled fragment: interpret every
           direct child and box the results. *)
        scalar
          (List.fold_left
             (fun acc ce -> SS.union acc (box ctx (interp ctx env ce)))
             SS.empty (direct_children e))

  (* Cases are joined against each other AND against the fall-through
     state, so a kill inside a branch never survives the join (the
     branch may not be the one taken — for [try] the body may not even
     raise). *)
  and interp_cases ctx env sv cases =
    let before = D.save ctx.dom in
    let v, joined =
      List.fold_left
        (fun (av, acc) (case : case) ->
          D.restore ctx.dom before;
          let env' =
            List.fold_left
              (fun env name -> SM.add name (scalar sv.taint) env)
              env
              (pattern_vars case.pc_lhs)
          in
          (match case.pc_guard with
          | Some g ->
              let gv = interp ctx env' g in
              D.discrete ctx.dom g.pexp_loc Branch "match guard" gv.taint
          | None -> ());
          let v = interp ctx env' case.pc_rhs in
          let acc = D.join acc (D.save ctx.dom) in
          (join_value ctx av v, acc))
        (sv, before) cases
    in
    D.restore ctx.dom joined;
    { v with taint = SS.union v.taint sv.taint }

  (* Loop bodies run a bounded number of passes (taints converge
     through ref cells and the edge graph); the domain state is then
     joined with the pre-loop state, since the loop may run zero
     times. *)
  and interp_loop ctx env ~var ~cond body =
    let before = D.save ctx.dom in
    let env' =
      match var with Some (pat, v) -> bind_pattern env pat v | None -> env
    in
    for _pass = 1 to loop_passes do
      (match cond with
      | Some c ->
          let cv = interp ctx env' c in
          D.discrete ctx.dom c.pexp_loc Branch "while condition" cv.taint
      | None -> ());
      ignore (interp ctx env' body)
    done;
    D.restore ctx.dom (D.join before (D.save ctx.dom));
    opaque

  (* A module path resolvable against this file's own function table:
     local modules always; under [D.resolve_functor_params], non-Scalar
     functor parameters too, against the first in-file definition of
     the same name (IS's [O : INT_OPS] resolves to [Plain_ops]). *)
  and resolvable_module ctx head =
    if Hashtbl.mem ctx.model.Model.local_modules head then true
    else if
      D.resolve_functor_params
      && Hashtbl.mem ctx.model.Model.param_modules head
    then begin
      note ctx
        (Printf.sprintf
           "calls through functor parameter %s resolved against the first \
            in-file definition of each operation"
           head);
      true
    end
    else false

  and eval_ident ctx env (lid : Longident.t) =
    let of_table name =
      match Model.find_fn ctx.model name with
      | Some fn -> shaped (Closure_sh (closure_of_fn name fn))
      | None -> (
          match Hashtbl.find_opt ctx.model.Model.consts name with
          | Some c -> { opaque with ann = D.int_const c }
          | None -> opaque)
    in
    match lid with
    | Longident.Lident name -> (
        match SM.find_opt name env with Some v -> v | None -> of_table name)
    | _ -> (
        match Model.flatten lid with
        | head :: _ when resolvable_module ctx head ->
            of_table (Model.last_segment lid)
        | _ -> opaque)

  and eval_field ctx env base (lid : Longident.t) =
    let bv = interp ctx env base in
    let f = Model.last_segment lid in
    match bv.sh with
    | State_sh ->
        if Model.is_state_field ctx.model f then
          if Hashtbl.find ctx.model.Model.fields f then
            (* Array field: a handle, not yet a read. *)
            shaped (Field_arr f)
          else begin
            (* A scalar read consumes the whole (one-element) value. *)
            D.read_all ctx.dom f;
            scalar (SS.singleton f)
          end
        else begin
          ignore (state_escape ctx (Printf.sprintf "unknown field %s" f));
          scalar (SS.singleton f)
        end
    | Ref_sh c when f = "contents" -> c.c_val
    | _ ->
        (* Field of a non-state record (CG's [st.matrix.n]): taint flows
           through, structure is opaque. *)
        scalar bv.taint

  (* Callee resolution: locals shadow everything, then functions this
     file defines (their bodies are interpreted, never table-matched),
     then the {!Effects} table. *)
  and interp_apply ctx env ~loc fn args =
    match fn.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let local =
          match txt with
          | Longident.Lident name -> SM.find_opt name env
          | _ -> None
        in
        match local with
        | Some v -> apply_value ctx v (eval_args ctx env args)
        | None -> (
            match resolve_local_fn ctx txt with
            | Some c -> apply_closure ctx c (eval_args ctx env args)
            | None ->
                let vals = eval_args ctx env args in
                let name = Model.last_segment txt in
                D.call ctx.dom loc name vals;
                let pure_module m =
                  Hashtbl.mem ctx.model.Model.pure_modules m
                in
                apply_effect ctx ~loc name
                  (Effects.classify ~pure_module (Model.flatten txt))
                  vals))
    | _ ->
        let fnv = interp ctx env fn in
        apply_value ctx fnv (eval_args ctx env args)

  and resolve_local_fn ctx (lid : Longident.t) =
    let resolvable =
      match lid with
      | Longident.Lident _ -> true
      | _ -> (
          match Model.flatten lid with
          | head :: _ -> resolvable_module ctx head
          | [] -> false)
    in
    if not resolvable then None
    else
      let last = Model.last_segment lid in
      Option.map (closure_of_fn last) (Model.find_fn ctx.model last)

  and eval_args ctx env args =
    List.map (fun (label, a) -> (label, interp ctx env a)) args

  and apply_value ctx fnv vals =
    match fnv.sh with
    | Closure_sh c -> apply_closure ctx c vals
    | Ref_sh { c_val = { sh = Closure_sh c; _ } } -> apply_closure ctx c vals
    | _ -> unknown_call ctx vals

  and apply_closure ctx c vals =
    if ctx.depth >= max_depth then begin
      note ctx "call depth limit hit: treating a call conservatively";
      unknown_call ctx vals
    end
    else begin
      ctx.depth <- ctx.depth + 1;
      let result = apply_closure_inner ctx c vals in
      ctx.depth <- ctx.depth - 1;
      result
    end

  and apply_closure_inner ctx c vals =
    let env =
      match c.cl_rec with
      | Some name -> SM.add name (shaped (Closure_sh c)) c.cl_env
      | None -> c.cl_env
    in
    (* Match labelled arguments to labelled parameters, positionals in
       order. *)
    let labelled_vals =
      List.filter_map
        (fun (label, v) ->
          match label with
          | Asttypes.Labelled l | Asttypes.Optional l -> Some (l, v)
          | Asttypes.Nolabel -> None)
        vals
    in
    let pos_vals = ref (positional vals) in
    let take_pos () =
      match !pos_vals with
      | v :: rest ->
          pos_vals := rest;
          Some v
      | [] -> None
    in
    let rec bind env params =
      match params with
      | [] -> (env, [])
      | (label, pat) :: rest -> (
          let arg =
            match label with
            | Asttypes.Labelled l | Asttypes.Optional l ->
                List.assoc_opt l labelled_vals
            | Asttypes.Nolabel -> take_pos ()
          in
          match arg with
          | Some v -> bind (bind_pattern env pat v) rest
          | None -> (
              match label with
              | Asttypes.Optional _ -> bind (bind_pattern env pat opaque) rest
              | _ ->
                  (* Partial application. *)
                  (env, params)))
    in
    let env, remaining = bind env c.cl_params in
    if remaining <> [] then
      shaped (Closure_sh { c with cl_params = remaining; cl_env = env })
    else
      let result = interp ctx env c.cl_body in
      match !pos_vals with
      | [] -> result
      | extra -> (
          (* Over-application: the result must itself be a function. *)
          match result.sh with
          | Closure_sh c' -> apply_closure ctx c' (nolabel extra)
          | _ -> unknown_call ctx (nolabel extra))

  (* Unknown callee: every argument is used, array arguments may be
     rewritten with cross-argument flow, closures may be invoked by the
     callee, the state escapes. *)
  and unknown_call ctx vals =
    let taints =
      List.fold_left (fun acc (_, v) -> SS.union acc (use_value ctx v)) SS.empty vals
    in
    let taints =
      List.fold_left
        (fun acc (_, v) ->
          match v.sh with
          | State_sh -> SS.union acc (state_escape ctx "an unknown call")
          | Closure_sh c -> SS.union acc (deep_taint (force_closure ctx c))
          | _ -> acc)
        taints vals
    in
    List.iter
      (fun (_, v) ->
        match v.sh with
        | Field_arr f -> add_edge ctx taints f
        | Local_arr cell | Ref_sh cell -> cell_join ctx cell (scalar taints)
        | _ -> ())
      vals;
    scalar taints

  (* A closure handed to unknown code may be invoked with anything:
     interpret its body once, all parameters opaque, so the reads and
     writes it performs are still observed. *)
  and force_closure ctx c =
    apply_closure ctx c (List.map (fun (label, _) -> (label, opaque)) c.cl_params)

  (* A write of [len] elements from offset 0 covering the whole field
     kills it. *)
  and overwrite ctx f ~off ~len =
    match
      ( D.const_of off.ann,
        D.const_of len.ann,
        Hashtbl.find_opt ctx.model.Model.field_elements f )
    with
    | Some 0, Some n, Some elems when n >= elems -> D.kill ctx.dom f
    | _ -> ()

  and apply_effect ctx ~loc name kind vals =
    match kind with
    | Effects.Pure ->
        { taint = taint_of vals; sh = Scalar_sh; ann = D.pure name vals }
    | Effects.Array_get -> (
        match positional vals with
        | [ arr; idx ] -> (
            D.discrete ctx.dom loc Subscript "array read index" idx.taint;
            match arr.sh with
            | Field_arr f ->
                D.read_elem ctx.dom f idx.ann;
                scalar (SS.union (SS.add f arr.taint) idx.taint)
            | Local_arr cell ->
                {
                  cell.c_val with
                  taint =
                    SS.union (deep_taint cell.c_val)
                      (SS.union arr.taint idx.taint);
                }
            | _ -> scalar (SS.union arr.taint idx.taint))
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_set -> (
        match positional vals with
        | [ arr; idx; v ] ->
            D.discrete ctx.dom loc Subscript "array write index" idx.taint;
            let srcs = SS.union (deep_taint v) idx.taint in
            (match arr.sh with
            | Field_arr f -> add_edge ctx srcs f
            | Local_arr cell -> cell_join ctx cell { v with taint = srcs }
            | _ -> ignore (box ctx v));
            opaque
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_length -> (
        (* Length is layout metadata, independent of the checkpointed
           element values: untainted. *)
        match positional vals with
        | [ { sh = Field_arr f; _ } ] -> (
            match Hashtbl.find_opt ctx.model.Model.field_elements f with
            | Some n -> { opaque with ann = D.int_const n }
            | None -> opaque)
        | [ _ ] -> opaque
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_alloc ->
        let taint =
          List.fold_left
            (fun acc (_, v) ->
              (match v.sh with Field_arr f -> D.read_all ctx.dom f | _ -> ());
              SS.union acc (deep_taint v))
            SS.empty vals
        in
        shaped (Local_arr { c_val = scalar taint })
    | Effects.Array_init -> (
        match positional vals with
        | [ n; f ] ->
            let elem =
              match f.sh with
              | Closure_sh c -> apply_closure ctx c [ (Asttypes.Nolabel, opaque) ]
              | _ -> scalar (deep_taint f)
            in
            let elem = { elem with taint = SS.union elem.taint n.taint } in
            shaped (Local_arr { c_val = elem })
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_hof h -> apply_hof ctx h vals
    | Effects.Array_fill -> (
        match positional vals with
        | [ arr; pos; len; v ] ->
            let bounds = SS.union pos.taint len.taint in
            D.discrete ctx.dom loc Subscript "fill bounds" bounds;
            let srcs = SS.union (deep_taint v) bounds in
            (match arr.sh with
            | Field_arr f ->
                add_edge ctx srcs f;
                overwrite ctx f ~off:pos ~len
            | Local_arr cell -> cell_join ctx cell { v with taint = srcs }
            | _ -> ignore (box ctx v));
            opaque
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_blit -> (
        match positional vals with
        | [ src; _spos; dst; _dpos; _len ] ->
            let srcs =
              match src.sh with
              | Field_arr f ->
                  D.read_all ctx.dom f;
                  SS.add f src.taint
              | Local_arr cell -> deep_taint cell.c_val
              | _ -> src.taint
            in
            (match dst.sh with
            | Field_arr f -> add_edge ctx srcs f
            | Local_arr cell -> cell_join ctx cell (scalar srcs)
            | _ -> ());
            opaque
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Array_sort ->
        (* A comparison sort consumes every element. *)
        List.iter
          (fun (_, v) ->
            match v.sh with
            | Field_arr f ->
                D.read_all ctx.dom f;
                add_edge ctx (SS.singleton f) f
            | _ -> ())
          vals;
        opaque
    | Effects.Deref -> (
        match positional vals with
        | [ r ] -> (
            match r.sh with
            | Ref_sh cell ->
                { cell.c_val with taint = SS.union cell.c_val.taint r.taint }
            | _ -> scalar r.taint)
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Assign -> (
        match positional vals with
        | [ r; v ] ->
            (match r.sh with
            | Ref_sh cell -> cell_join ctx cell v
            | _ -> ignore (box ctx v));
            opaque
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Ref_make -> (
        match positional vals with
        | [ v ] -> shaped (Ref_sh { c_val = v })
        | vals -> unknown_call ctx (nolabel vals))
    | Effects.Incr | Effects.Ignore | Effects.Raise -> opaque
    | Effects.Vranlc ->
        (* [Nprand.vranlc rng ~a count arr off]: writes [count] fresh
           deviates at [arr.(off ...)]. *)
        let srcs = taint_of vals in
        (match positional vals with
        | [ _rng; count; arr; off ] -> (
            match arr.sh with
            | Field_arr f ->
                add_edge ctx srcs f;
                overwrite ctx f ~off ~len:count
            | Local_arr cell -> cell_join ctx cell (scalar srcs)
            | _ -> ())
        | _ -> ());
        opaque
    | Effects.Unknown_call -> unknown_call ctx vals

  (* The traversed sequence(s) are whole-array reads; the callback sees
     element values tainted by them. *)
  and apply_hof ctx kind vals =
    let arrays, fns =
      List.partition
        (fun (_, v) ->
          match v.sh with Field_arr _ | Local_arr _ -> true | _ -> false)
        vals
    in
    let elem_taint =
      List.fold_left
        (fun acc (_, v) ->
          match v.sh with
          | Field_arr f ->
              D.read_all ctx.dom f;
              SS.add f acc
          | Local_arr cell -> SS.union acc (deep_taint cell.c_val)
          | _ -> acc)
        SS.empty arrays
    in
    let closure =
      List.find_map
        (fun (_, v) -> match v.sh with Closure_sh c -> Some c | _ -> None)
        fns
    in
    let other_taint =
      List.fold_left
        (fun acc (_, v) ->
          match v.sh with Closure_sh _ -> acc | _ -> SS.union acc (deep_taint v))
        SS.empty fns
    in
    let elem = scalar (SS.union elem_taint other_taint) in
    let apply_cb args_for_cb =
      match closure with
      | Some c -> apply_closure ctx c (nolabel args_for_cb)
      | None -> scalar (SS.union elem_taint other_taint)
    in
    match kind with
    | Effects.Iter ->
        ignore (apply_cb [ elem ]);
        ignore (apply_cb [ elem ]);
        opaque
    | Effects.Iteri ->
        ignore (apply_cb [ opaque; elem ]);
        ignore (apply_cb [ opaque; elem ]);
        opaque
    | Effects.Map ->
        let r = apply_cb [ elem ] in
        shaped (Local_arr { c_val = scalar (SS.union (deep_taint r) elem.taint) })
    | Effects.Fold ->
        (* fold f init seq / fold_right f seq init: thread the
           accumulator twice so element taint reaches it. *)
        let acc0 = scalar other_taint in
        let acc1 = apply_cb [ acc0; elem ] in
        let acc2 =
          apply_cb [ scalar (SS.union (deep_taint acc1) elem.taint); elem ]
        in
        scalar (SS.union (deep_taint acc2) (SS.union elem_taint other_taint))

  (* ---- entry ---------------------------------------------------------- *)

  let walk dom (model : Model.t) =
    let entry name =
      match Model.find_fn model name with
      | Some fn -> fn
      | None -> raise (Incomplete (Printf.sprintf "no %s function found" name))
    in
    let run = entry "run" in
    let output = entry "output" in
    let ctx =
      {
        model;
        dom;
        edges = Hashtbl.create 32;
        notes = [];
        fuel = 50_000_000;
        depth = 0;
      }
    in
    (* First parameter is the state; the window bounds are opaque. *)
    let bind_params params =
      List.fold_left
        (fun (env, first) (_label, pat) ->
          let v = if first then shaped State_sh else opaque in
          (bind_pattern env pat v, false))
        (SM.empty, true) params
      |> fst
    in
    ignore (interp ctx (bind_params run.Model.fn_params) run.Model.fn_body);
    let out_v =
      interp ctx (bind_params output.Model.fn_params) output.Model.fn_body
    in
    add_edge ctx (deep_taint out_v) "@output";
    ({ model; edges = ctx.edges; notes = ctx.notes } : walk)
end
