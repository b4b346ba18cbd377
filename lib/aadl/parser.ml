(* Recursive-descent parser for the textual AADL subset.

   Supported: component type and implementation declarations for all
   categories of Ast.category; features (ports and data accesses);
   subcomponents; port and access connections; mode declarations;
   property associations with units, ranges, references, lists and
   [applies to] clauses; optional [package] wrappers.  Keywords are
   case-insensitive, as required by AS5506. *)

type state = { toks : Lexer.t; last : int; mutable pos : int }

let peek st = Lexer.token st.toks st.pos
let peek_loc st = Lexer.loc st.toks st.pos
let peek2 st = if st.pos < st.last then Lexer.token st.toks (st.pos + 1) else Lexer.EOF
let advance st = if st.pos < st.last then st.pos <- st.pos + 1

let fail st fmt = Diag.fail ~loc:(peek_loc st) fmt

let expect st tok what =
  if peek st = tok then advance st
  else
    fail st "expected %s but found %a" what Lexer.pp_token (peek st)

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | t -> fail st "expected identifier, found %a" Lexer.pp_token t

(* Case-insensitive keyword tests on identifier tokens; keywords are
   given in lowercase. *)
let is_kw st kw =
  match peek st with Lexer.IDENT s -> Name.equal s kw | _ -> false

let accept_kw st kw =
  if is_kw st kw then begin
    advance st;
    true
  end
  else false

let expect_kw st kw =
  if not (accept_kw st kw) then
    fail st "expected keyword %S, found %a" kw Lexer.pp_token (peek st)

let categories =
  [
    ("system", Some Ast.System);
    ("process", Some Ast.Process);
    ("thread", Some Ast.Thread) (* "thread group" resolved by caller *);
    ("subprogram", Some Ast.Subprogram);
    ("data", Some Ast.Data);
    ("processor", Some Ast.Processor);
    ("memory", Some Ast.Memory);
    ("bus", Some Ast.Bus);
    ("device", Some Ast.Device);
  ]

let rec category_of_kw s = function
  | [] -> None
  | (kw, c) :: rest -> if Name.equal s kw then c else category_of_kw s rest

(* Parse a category keyword, handling the two-word "thread group". *)
let parse_category st =
  match peek st with
  | Lexer.IDENT s -> (
      match category_of_kw s categories with
      | Some Ast.Thread when peek2 st = Lexer.IDENT "group" ->
          advance st;
          advance st;
          Ast.Thread_group
      | Some c ->
          advance st;
          c
      | None -> fail st "expected component category, found %S" s)
  | t -> fail st "expected component category, found %a" Lexer.pp_token t

(* {1 Property values} *)

let rec parse_pvalue st : Ast.pvalue =
  let v = parse_pvalue_atom st in
  if peek st = Lexer.DOTDOT then begin
    advance st;
    let hi = parse_pvalue_atom st in
    Ast.Prange (v, hi)
  end
  else v

and parse_pvalue_atom st : Ast.pvalue =
  match peek st with
  | Lexer.INT n -> (
      let literal = st.pos in
      advance st;
      (* a following identifier may be a time unit *)
      match peek st with
      | Lexer.IDENT u -> (
          match Time.unit_of_string u with
          | None -> Ast.Pint n
          | Some unit_ ->
              advance st;
              let loc = Lexer.loc st.toks literal in
              if unit_ = Time.Ps && n mod 1000 <> 0 then
                Diag.fail ~loc "%d ps is not a whole number of nanoseconds" n
              else if not (Time.fits n unit_) then
                Diag.fail ~loc "%d %s does not fit in the nanosecond time range"
                  n (Time.unit_to_string unit_)
              else Ast.Ptime (Time.make n unit_))
      | _ -> Ast.Pint n)
  | Lexer.REAL f ->
      advance st;
      Ast.Preal f
  | Lexer.STRING s ->
      advance st;
      Ast.Pstring s
  | Lexer.LPAREN ->
      advance st;
      let rec items acc =
        if peek st = Lexer.RPAREN then List.rev acc
        else
          let v = parse_pvalue st in
          if peek st = Lexer.COMMA then begin
            advance st;
            items (v :: acc)
          end
          else List.rev (v :: acc)
      in
      let vs = items [] in
      expect st Lexer.RPAREN "')' closing a property list";
      Ast.Plist vs
  | Lexer.IDENT s when Name.equal s "reference" ->
      advance st;
      expect st Lexer.LPAREN "'(' after reference";
      let path = parse_dotted_path st in
      expect st Lexer.RPAREN "')' closing a reference";
      Ast.Preference path
  | Lexer.IDENT s when Name.equal s "true" ->
      advance st;
      Ast.Pbool true
  | Lexer.IDENT s when Name.equal s "false" ->
      advance st;
      Ast.Pbool false
  | Lexer.IDENT s ->
      advance st;
      Ast.Penum s
  | t -> fail st "expected property value, found %a" Lexer.pp_token t

and parse_dotted_path st =
  let first = ident st in
  let rec go acc =
    if peek st = Lexer.DOT then begin
      advance st;
      go (ident st :: acc)
    end
    else List.rev acc
  in
  go [ first ]

(* A property name is [ident] or [set::name]; '::' arrives as two colons. *)
let parse_property_name st =
  let first = ident st in
  if peek st = Lexer.COLON && peek2 st = Lexer.COLON then begin
    advance st;
    advance st;
    let second = ident st in
    String.lowercase_ascii (first ^ "::" ^ second)
  end
  else String.lowercase_ascii first

let parse_prop st : Ast.prop =
  let ploc = peek_loc st in
  let pname = parse_property_name st in
  (match peek st with
  | Lexer.DARROW | Lexer.PLUSDARROW -> advance st
  | t -> fail st "expected '=>' in property association, found %a" Lexer.pp_token t);
  let pvalue = parse_pvalue st in
  let applies_to =
    if is_kw st "applies" then begin
      advance st;
      expect_kw st "to";
      let rec paths acc =
        let p = parse_dotted_path st in
        if peek st = Lexer.COMMA then begin
          advance st;
          paths (p :: acc)
        end
        else List.rev (p :: acc)
      in
      paths []
    end
    else []
  in
  expect st Lexer.SEMI "';' ending a property association";
  { Ast.pname; pvalue; applies_to; ploc }

(* Parse a "{ prop... }" curly property block (inline association list). *)
let parse_curly_props st =
  if peek st = Lexer.LBRACE then begin
    advance st;
    let rec go acc =
      if peek st = Lexer.RBRACE then begin
        advance st;
        List.rev acc
      end
      else go (parse_prop st :: acc)
    in
    go []
  end
  else []

(* Optional "in modes ( m1, m2 )" clause. *)
let parse_in_modes st =
  let next_is_modes =
    match peek2 st with
    | Lexer.IDENT s -> Name.equal s "modes"
    | _ -> false
  in
  if is_kw st "in" && next_is_modes then begin
    advance st;
    advance st;
    expect st Lexer.LPAREN "'(' after in modes";
    let rec go acc =
      let m = ident st in
      if peek st = Lexer.COMMA then begin
        advance st;
        go (m :: acc)
      end
      else List.rev (m :: acc)
    in
    let ms = go [] in
    expect st Lexer.RPAREN "')' closing in modes";
    ms
  end
  else []

(* Sections may be "none ;" *)
let accept_none_section st =
  if is_kw st "none" && peek2 st = Lexer.SEMI then begin
    advance st;
    advance st;
    true
  end
  else false

(* {1 Features} *)

let parse_direction st =
  if accept_kw st "in" then
    if accept_kw st "out" then Ast.In_out else Ast.In
  else if accept_kw st "out" then Ast.Out
  else fail st "expected 'in' or 'out' in a port declaration"

let parse_feature st : Ast.feature =
  let floc = peek_loc st in
  let fname = ident st in
  expect st Lexer.COLON "':' after feature name";
  let fkind =
    if is_kw st "requires" || is_kw st "provides" then begin
      let dir = if accept_kw st "requires" then Ast.In else (advance st; Ast.Out) in
      expect_kw st "data";
      expect_kw st "access";
      let cls =
        match peek st with
        | Lexer.IDENT _ -> Some (String.concat "." (parse_dotted_path st))
        | _ -> None
      in
      Ast.Data_access (dir, cls)
    end
    else begin
      let dir = parse_direction st in
      let kind =
        if accept_kw st "event" then
          if accept_kw st "data" then Ast.Event_data_port else Ast.Event_port
        else if accept_kw st "data" then Ast.Data_port
        else fail st "expected 'data', 'event' or 'event data' port kind"
      in
      expect_kw st "port";
      let cls =
        match peek st with
        | Lexer.IDENT _ -> Some (String.concat "." (parse_dotted_path st))
        | _ -> None
      in
      Ast.Port (dir, kind, cls)
    end
  in
  let fprops = parse_curly_props st in
  expect st Lexer.SEMI "';' ending a feature";
  { Ast.fname; fkind; fprops; floc }

(* {1 Subcomponents, connections, modes} *)

let parse_subcomponent st : Ast.subcomponent =
  let sub_loc = peek_loc st in
  let sub_name = ident st in
  expect st Lexer.COLON "':' after subcomponent name";
  let sub_category = parse_category st in
  let sub_classifier =
    match peek st with
    | Lexer.IDENT _ -> Some (String.concat "." (parse_dotted_path st))
    | _ -> None
  in
  let sub_props = parse_curly_props st in
  let sub_modes = parse_in_modes st in
  expect st Lexer.SEMI "';' ending a subcomponent";
  { Ast.sub_name; sub_category; sub_classifier; sub_props; sub_modes; sub_loc }

let parse_conn_end st : Ast.conn_end =
  let first = ident st in
  if peek st = Lexer.DOT then begin
    advance st;
    let feat = ident st in
    { Ast.ce_sub = Some first; ce_feature = feat }
  end
  else { Ast.ce_sub = None; ce_feature = first }

let parse_connection st : Ast.connection =
  let conn_loc = peek_loc st in
  (* optional label: IDENT ':' not followed by a connection keyword *)
  let conn_name =
    match (peek st, peek2 st) with
    | Lexer.IDENT n, Lexer.COLON
      when not (Name.equal n "port") ->
        advance st;
        advance st;
        Some n
    | _ -> None
  in
  let conn_kind =
    if accept_kw st "port" then Ast.Port_connection
    else if accept_kw st "data" then
      if accept_kw st "access" then Ast.Access_connection
      else begin
        (* legacy AADLv1 syntax: "data port a -> b" *)
        expect_kw st "port";
        Ast.Port_connection
      end
    else if accept_kw st "event" then begin
      (* legacy AADLv1 syntax: "event data port" / "event port" connection *)
      ignore (accept_kw st "data");
      expect_kw st "port";
      Ast.Port_connection
    end
    else Ast.Port_connection (* AADLv1 "data port a -> b" handled below *)
  in
  let src = parse_conn_end st in
  let conn_bidirectional =
    match peek st with
    | Lexer.ARROW ->
        advance st;
        false
    | Lexer.BIARROW ->
        advance st;
        true
    | t -> fail st "expected '->' or '<->', found %a" Lexer.pp_token t
  in
  let dst = parse_conn_end st in
  let conn_props = parse_curly_props st in
  let conn_modes = parse_in_modes st in
  expect st Lexer.SEMI "';' ending a connection";
  {
    Ast.conn_name;
    conn_kind;
    conn_src = src;
    conn_dst = dst;
    conn_bidirectional;
    conn_props;
    conn_modes;
    conn_loc;
  }

type mode_item = Mode_decl of Ast.mode | Mode_trans of Ast.mode_transition

let parse_mode_item st : mode_item =
  let loc = peek_loc st in
  let first = ident st in
  (* optional transition label: "t1: m1 -[...]-> m2;" *)
  let first =
    let labeled_transition =
      peek st = Lexer.COLON
      &&
      match peek2 st with
      | Lexer.IDENT s -> not (Name.equal s "initial" || Name.equal s "mode")
      | _ -> false
    in
    if labeled_transition then begin
      advance st;
      ident st
    end
    else first
  in
  match peek st with
  | Lexer.COLON ->
      advance st;
      let mode_initial = accept_kw st "initial" in
      expect_kw st "mode";
      expect st Lexer.SEMI "';' ending a mode";
      Mode_decl { Ast.mode_name = first; mode_initial; mode_loc = loc }
  | Lexer.TRANSL ->
      advance st;
      let rec triggers acc =
        let t = parse_conn_end st in
        if peek st = Lexer.COMMA then begin
          advance st;
          triggers (t :: acc)
        end
        else List.rev (t :: acc)
      in
      let mt_triggers = triggers [] in
      expect st Lexer.RBRACKET "']' closing the trigger list";
      expect st Lexer.ARROW "'->' after the trigger list";
      let dst = ident st in
      expect st Lexer.SEMI "';' ending a mode transition";
      Mode_trans
        { Ast.mt_src = first; mt_dst = dst; mt_triggers; mt_loc = loc }
  | t ->
      fail st "expected ':' or '-[' in a mode declaration, found %a"
        Lexer.pp_token t

(* {1 Declarations} *)

let type_sections = [ "properties"; "end"; "flows"; "modes" ]

let parse_type_body st category name loc : Ast.component_type =
  let features =
    if accept_kw st "features" then
      if accept_none_section st then []
      else begin
        let rec go acc =
          match peek st with
          | Lexer.IDENT s when not (Name.mem s type_sections) ->
              go (parse_feature st :: acc)
          | _ -> List.rev acc
        in
        go []
      end
    else []
  in
  let props =
    if accept_kw st "properties" then
      if accept_none_section st then []
      else begin
        let rec go acc =
          match peek st with
          | Lexer.IDENT s when not (Name.equal s "end") ->
              go (parse_prop st :: acc)
          | _ -> List.rev acc
        in
        go []
      end
    else []
  in
  expect_kw st "end";
  let end_name = ident st in
  if not (Name.equal end_name name) then
    fail st "'end %s;' does not match component type %s" end_name name;
  expect st Lexer.SEMI "';' after end";
  {
    Ast.ct_category = category;
    ct_name = name;
    ct_features = features;
    ct_props = props;
    ct_loc = loc;
  }

let section_keywords =
  [ "subcomponents"; "connections"; "properties"; "modes"; "end"; "calls"; "flows" ]

let parse_impl_body st category type_name impl_name loc : Ast.component_impl =
  let subs =
    if accept_kw st "subcomponents" then
      if accept_none_section st then []
      else begin
        let rec go acc =
          match peek st with
          | Lexer.IDENT s
            when not (Name.mem s section_keywords) ->
              go (parse_subcomponent st :: acc)
          | _ -> List.rev acc
        in
        go []
      end
    else []
  in
  let conns =
    if accept_kw st "connections" then
      if accept_none_section st then []
      else begin
        let rec go acc =
          match peek st with
          | Lexer.IDENT s
            when not (Name.mem s section_keywords) ->
              go (parse_connection st :: acc)
          | _ -> List.rev acc
        in
        go []
      end
    else []
  in
  let modes, transitions =
    if accept_kw st "modes" then
      if accept_none_section st then ([], [])
      else begin
        let rec go ms ts =
          match peek st with
          | Lexer.IDENT s
            when not (Name.mem s section_keywords) -> (
              match parse_mode_item st with
              | Mode_decl m -> go (m :: ms) ts
              | Mode_trans t -> go ms (t :: ts))
          | _ -> (List.rev ms, List.rev ts)
        in
        go [] []
      end
    else ([], [])
  in
  let props =
    if accept_kw st "properties" then
      if accept_none_section st then []
      else begin
        let rec go acc =
          match peek st with
          | Lexer.IDENT s when not (Name.equal s "end") ->
              go (parse_prop st :: acc)
          | _ -> List.rev acc
        in
        go []
      end
    else []
  in
  expect_kw st "end";
  let end_type = ident st in
  expect st Lexer.DOT "'.' in end name of an implementation";
  let end_impl = ident st in
  if
    not (Name.equal end_type type_name && Name.equal end_impl impl_name)
  then
    fail st "'end %s.%s;' does not match implementation %s.%s" end_type
      end_impl type_name impl_name;
  expect st Lexer.SEMI "';' after end";
  {
    Ast.ci_category = category;
    ci_type_name = type_name;
    ci_impl_name = impl_name;
    ci_subcomponents = subs;
    ci_connections = conns;
    ci_modes = modes;
    ci_transitions = transitions;
    ci_props = props;
    ci_loc = loc;
  }

let parse_declaration st : Ast.declaration =
  let loc = peek_loc st in
  let category = parse_category st in
  if accept_kw st "implementation" then begin
    let type_name = ident st in
    expect st Lexer.DOT "'.' in implementation name";
    let impl_name = ident st in
    Ast.Impl_decl (parse_impl_body st category type_name impl_name loc)
  end
  else begin
    let name = ident st in
    (* "extends" clauses are accepted and flattened by recording only the
       parent name; full refinement semantics is out of scope *)
    if accept_kw st "extends" then ignore (parse_dotted_path st);
    Ast.Type_decl (parse_type_body st category name loc)
  end

let parse_model_tokens st : Ast.model =
  let decls = ref [] in
  let rec go () =
    match peek st with
    | Lexer.EOF -> ()
    | Lexer.IDENT s when Name.equal s "package" ->
        advance st;
        ignore (parse_dotted_path st);
        ignore (accept_kw st "public");
        go_in_package ();
        go ()
    | _ ->
        decls := parse_declaration st :: !decls;
        go ()
  and go_in_package () =
    if is_kw st "end" then begin
      advance st;
      ignore (parse_dotted_path st);
      expect st Lexer.SEMI "';' after package end"
    end
    else if accept_kw st "private" then go_in_package ()
    else begin
      decls := parse_declaration st :: !decls;
      go_in_package ()
    end
  in
  go ();
  { Ast.decls = List.rev !decls }

let parse_string input =
  let toks = Lexer.tokenize input in
  parse_model_tokens { toks; last = Lexer.length toks - 1; pos = 0 }

let parse_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string contents
