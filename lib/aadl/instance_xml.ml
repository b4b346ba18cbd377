(* An XML interchange format for instance models, in the spirit of
   OSATE's XML-based internal representation that the paper's tool chain
   consumes ("AADL standard is complemented by ... OSATE, which supports
   an XML-based internal representation of AADL models", Section 1).

   The schema is self-defined (OSATE's AAXL is Eclipse-specific) and
   round-trips every field of {!Instance.t}:

   {v
   <instance name="root.impl" category="system">
     <subcomponent name="cpu1" category="processor" classifier="cpu">
       <property name="scheduling_protocol"><enum v="EDF_PROTOCOL"/></property>
     </subcomponent>
     <subcomponent name="a" category="thread" in_modes="m1 m2">
       <feature name="outp" direction="out" kind="data_port"/>
       ...
     </subcomponent>
     <connection kind="port" src="a.outp" dst="b.inp"/>
     <mode name="m1" initial="true"/>
     <transition src="m1" dst="m2"><trigger ref="ctl.alarm"/></transition>
   </instance>
   v} *)

(* {1 Property values} *)

let rec pvalue_to_xml (v : Ast.pvalue) : Xml.t =
  match v with
  | Ast.Pint n -> Xml.Element ("int", [ ("v", string_of_int n) ], [])
  | Ast.Preal f -> Xml.Element ("real", [ ("v", string_of_float f) ], [])
  | Ast.Pbool b -> Xml.Element ("bool", [ ("v", string_of_bool b) ], [])
  | Ast.Pstring s -> Xml.Element ("string", [ ("v", s) ], [])
  | Ast.Penum s -> Xml.Element ("enum", [ ("v", s) ], [])
  | Ast.Ptime t ->
      Xml.Element ("time", [ ("ns", string_of_int (Time.to_ns t)) ], [])
  | Ast.Prange (lo, hi) ->
      Xml.Element ("range", [], [ pvalue_to_xml lo; pvalue_to_xml hi ])
  | Ast.Preference path ->
      Xml.Element ("reference", [ ("path", String.concat "." path) ], [])
  | Ast.Plist vs -> Xml.Element ("list", [], List.map pvalue_to_xml vs)

let req_attr what name x =
  match Xml.attr name x with
  | Some v -> v
  | None -> Diag.fail "%s: missing attribute %s" what name

let conv_attr what name conv x =
  let v = req_attr what name x in
  match conv v with
  | Some r -> r
  | None -> Diag.fail "%s: malformed attribute %s=%S" what name v

let rec pvalue_of_xml (x : Xml.t) : Ast.pvalue =
  match Xml.tag x with
  | Some "int" -> Ast.Pint (conv_attr "int" "v" int_of_string_opt x)
  | Some "real" -> Ast.Preal (conv_attr "real" "v" float_of_string_opt x)
  | Some "bool" -> Ast.Pbool (conv_attr "bool" "v" bool_of_string_opt x)
  | Some "string" -> Ast.Pstring (req_attr "string" "v" x)
  | Some "enum" -> Ast.Penum (req_attr "enum" "v" x)
  | Some "time" ->
      Ast.Ptime (Time.of_ns (conv_attr "time" "ns" int_of_string_opt x))
  | Some "range" -> (
      match Xml.all_children x with
      | [ lo; hi ] -> Ast.Prange (pvalue_of_xml lo, pvalue_of_xml hi)
      | _ -> Diag.fail "range: expected two children")
  | Some "reference" ->
      Ast.Preference
        (String.split_on_char '.' (req_attr "reference" "path" x))
  | Some "list" -> Ast.Plist (List.map pvalue_of_xml (Xml.all_children x))
  | Some t -> Diag.fail "unknown property value element <%s>" t
  | None -> Diag.fail "expected a property value element"

let prop_to_xml (p : Ast.prop) : Xml.t =
  Xml.Element ("property", [ ("name", p.Ast.pname) ], [ pvalue_to_xml p.Ast.pvalue ])

let prop_of_xml (x : Xml.t) : Ast.prop =
  let pname = req_attr "property" "name" x in
  match Xml.all_children x with
  | [ v ] ->
      {
        Ast.pname;
        pvalue = pvalue_of_xml v;
        applies_to = [];
        ploc = Ast.no_loc;
      }
  | _ -> Diag.fail "property %s: expected one value child" pname

(* {1 Features} *)

let direction_to_string = function
  | Ast.In -> "in"
  | Ast.Out -> "out"
  | Ast.In_out -> "in_out"

let direction_of_string = function
  | "in" -> Ast.In
  | "out" -> Ast.Out
  | "in_out" -> Ast.In_out
  | d -> Diag.fail "unknown direction %s" d

let port_kind_to_string = function
  | Ast.Data_port -> "data_port"
  | Ast.Event_port -> "event_port"
  | Ast.Event_data_port -> "event_data_port"

let port_kind_of_string = function
  | "data_port" -> Ast.Data_port
  | "event_port" -> Ast.Event_port
  | "event_data_port" -> Ast.Event_data_port
  | k -> Diag.fail "unknown port kind %s" k

let feature_to_xml (f : Ast.feature) : Xml.t =
  let kind_attrs =
    match f.Ast.fkind with
    | Ast.Port (dir, kind, cls) ->
        [
          ("direction", direction_to_string dir);
          ("kind", port_kind_to_string kind);
        ]
        @ (match cls with Some c -> [ ("classifier", c) ] | None -> [])
    | Ast.Data_access (dir, cls) ->
        [ ("direction", direction_to_string dir); ("kind", "data_access") ]
        @ (match cls with Some c -> [ ("classifier", c) ] | None -> [])
  in
  Xml.Element
    ( "feature",
      ("name", f.Ast.fname) :: kind_attrs,
      List.map prop_to_xml f.Ast.fprops )

let feature_of_xml (x : Xml.t) : Ast.feature =
  let fname = req_attr "feature" "name" x in
  let dir = direction_of_string (req_attr "feature" "direction" x) in
  let cls = Xml.attr "classifier" x in
  let fkind =
    match req_attr "feature" "kind" x with
    | "data_access" -> Ast.Data_access (dir, cls)
    | k -> Ast.Port (dir, port_kind_of_string k, cls)
  in
  {
    Ast.fname;
    fkind;
    fprops = List.map prop_of_xml (Xml.children "property" x);
    floc = Ast.no_loc;
  }

(* {1 Connections, modes, transitions} *)

let conn_end_to_string (e : Ast.conn_end) =
  match e.Ast.ce_sub with
  | Some sub -> sub ^ "." ^ e.Ast.ce_feature
  | None -> e.Ast.ce_feature

let conn_end_of_string s : Ast.conn_end =
  match String.index_opt s '.' with
  | Some i ->
      {
        Ast.ce_sub = Some (String.sub s 0 i);
        ce_feature = String.sub s (i + 1) (String.length s - i - 1);
      }
  | None -> { Ast.ce_sub = None; ce_feature = s }

let connection_to_xml (c : Ast.connection) : Xml.t =
  let attrs =
    (match c.Ast.conn_name with Some n -> [ ("name", n) ] | None -> [])
    @ [
        ( "kind",
          match c.Ast.conn_kind with
          | Ast.Port_connection -> "port"
          | Ast.Access_connection -> "access" );
        ("src", conn_end_to_string c.Ast.conn_src);
        ("dst", conn_end_to_string c.Ast.conn_dst);
      ]
    @ (if c.Ast.conn_bidirectional then [ ("bidirectional", "true") ] else [])
    @
    if c.Ast.conn_modes <> [] then
      [ ("in_modes", String.concat " " c.Ast.conn_modes) ]
    else []
  in
  Xml.Element ("connection", attrs, List.map prop_to_xml c.Ast.conn_props)

let connection_of_xml (x : Xml.t) : Ast.connection =
  {
    Ast.conn_name = Xml.attr "name" x;
    conn_kind =
      (match req_attr "connection" "kind" x with
      | "port" -> Ast.Port_connection
      | "access" -> Ast.Access_connection
      | k -> Diag.fail "unknown connection kind %s" k);
    conn_src = conn_end_of_string (req_attr "connection" "src" x);
    conn_dst = conn_end_of_string (req_attr "connection" "dst" x);
    conn_bidirectional = Xml.attr "bidirectional" x = Some "true";
    conn_props = List.map prop_of_xml (Xml.children "property" x);
    conn_modes =
      (match Xml.attr "in_modes" x with
      | Some s -> String.split_on_char ' ' s
      | None -> []);
    conn_loc = Ast.no_loc;
  }

let mode_to_xml (m : Ast.mode) : Xml.t =
  Xml.Element
    ( "mode",
      ("name", m.Ast.mode_name)
      :: (if m.Ast.mode_initial then [ ("initial", "true") ] else []),
      [] )

let mode_of_xml (x : Xml.t) : Ast.mode =
  {
    Ast.mode_name = req_attr "mode" "name" x;
    mode_initial = Xml.attr "initial" x = Some "true";
    mode_loc = Ast.no_loc;
  }

let transition_to_xml (t : Ast.mode_transition) : Xml.t =
  Xml.Element
    ( "transition",
      [ ("src", t.Ast.mt_src); ("dst", t.Ast.mt_dst) ],
      List.map
        (fun trig ->
          Xml.Element ("trigger", [ ("ref", conn_end_to_string trig) ], []))
        t.Ast.mt_triggers )

let transition_of_xml (x : Xml.t) : Ast.mode_transition =
  {
    Ast.mt_src = req_attr "transition" "src" x;
    mt_dst = req_attr "transition" "dst" x;
    mt_triggers =
      List.map
        (fun trig -> conn_end_of_string (req_attr "trigger" "ref" trig))
        (Xml.children "trigger" x);
    mt_loc = Ast.no_loc;
  }

(* {1 Instances} *)

let category_of_string s =
  match String.lowercase_ascii s with
  | "system" -> Ast.System
  | "process" -> Ast.Process
  | "thread_group" -> Ast.Thread_group
  | "thread" -> Ast.Thread
  | "subprogram" -> Ast.Subprogram
  | "data" -> Ast.Data
  | "processor" -> Ast.Processor
  | "memory" -> Ast.Memory
  | "bus" -> Ast.Bus
  | "device" -> Ast.Device
  | c -> Diag.fail "unknown category %s" c

let category_to_string c =
  match c with
  | Ast.Thread_group -> "thread_group"
  | c -> Ast.category_to_string c

let rec instance_to_xml ~tag (inst : Instance.t) : Xml.t =
  let attrs =
    [ ("name", inst.Instance.name);
      ("category", category_to_string inst.Instance.category);
    ]
    @ (match inst.Instance.classifier with
      | Some c -> [ ("classifier", c) ]
      | None -> [])
    @
    if inst.Instance.in_modes <> [] then
      [ ("in_modes", String.concat " " inst.Instance.in_modes) ]
    else []
  in
  Xml.Element
    ( tag,
      attrs,
      List.map feature_to_xml inst.Instance.features
      @ List.map prop_to_xml inst.Instance.props
      @ List.map connection_to_xml inst.Instance.connections
      @ List.map mode_to_xml inst.Instance.modes
      @ List.map transition_to_xml inst.Instance.transitions
      @ List.map (instance_to_xml ~tag:"subcomponent") inst.Instance.children
    )

let to_xml (root : Instance.t) : Xml.t = instance_to_xml ~tag:"instance" root

let rec instance_of_xml ~path (x : Xml.t) : Instance.t =
  let name = req_attr "instance" "name" x in
  let this_path = if path = None then [] else Option.get path @ [ name ] in
  {
    Instance.name;
    path = this_path;
    category = category_of_string (req_attr "instance" "category" x);
    classifier = Xml.attr "classifier" x;
    features = List.map feature_of_xml (Xml.children "feature" x);
    props = List.map prop_of_xml (Xml.children "property" x);
    connections = List.map connection_of_xml (Xml.children "connection" x);
    modes = List.map mode_of_xml (Xml.children "mode" x);
    transitions = List.map transition_of_xml (Xml.children "transition" x);
    in_modes =
      (match Xml.attr "in_modes" x with
      | Some s -> String.split_on_char ' ' s
      | None -> []);
    children =
      List.map
        (instance_of_xml ~path:(Some this_path))
        (Xml.children "subcomponent" x);
    loc = Ast.no_loc;
  }

let of_xml (x : Xml.t) : Instance.t = instance_of_xml ~path:None x

let to_string root = Xml.to_string (to_xml root)

let of_string s = of_xml (Xml.parse_string s)

let write_file path root =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "<?xml version=\"1.0\"?>\n";
      output_string oc (to_string root);
      output_string oc "\n")

let read_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string contents
