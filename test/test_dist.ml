(* Tests for the distributed service tier: the verdict journal (CRC
   framing, torn-tail and corrupt-record recovery, compaction
   equivalence, warm restarts), the router/shard protocol on the
   simulated fault fabric (routing correctness, seeded fault-matrix
   qcheck with bit-identical replay, healing partitions, mid-batch
   shard restart), and the socket transport on loopback (address
   parsing, framing, timeouts, the same protocol suite over real
   fds). *)

let outcome ?(verdict = Service.Job.Schedulable) ?(states = 7) id =
  {
    Service.Job.id;
    verdict;
    states;
    cached = false;
    degraded = false;
    wall_s = 0.125;
  }

let temp_path suffix =
  let path = Filename.temp_file "aadl_dist" suffix in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let journal_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "journal: %s" msg

(* {1 Journal} *)

let test_journal_roundtrip () =
  let path = temp_path ".journal" in
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length r.replayed);
  Service.Journal.append j ~key:"k1" (outcome "a");
  Service.Journal.append j ~key:"k2"
    (outcome
       ~verdict:
         (Service.Job.Not_schedulable
            { violation_time = 40; scenario = "t2 misses at 40" })
       "b");
  Service.Journal.append j ~key:"k1" (outcome ~states:9 "a2");
  Service.Journal.close j;
  let all = journal_exn (Service.Journal.read_back path) in
  Alcotest.(check int) "all appends on disk" 3 (List.length all);
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check int) "latest per key survives" 2 (List.length r.replayed);
  Alcotest.(check int) "no damage" 0 r.dropped_bytes;
  Alcotest.(check bool) "no corruption" false r.corrupt;
  (* last-write-wins, replay ordered oldest-append first *)
  Alcotest.(check (list string))
    "replay order and content" [ "b"; "a2" ]
    (List.map (fun (_, o) -> o.Service.Job.id) r.replayed);
  (match List.assoc_opt "k1" r.replayed with
  | Some o -> Alcotest.(check int) "k1 is the second write" 9 o.Service.Job.states
  | None -> Alcotest.fail "k1 missing");
  Service.Journal.close j;
  Sys.remove path

let test_journal_truncated_tail () =
  let path = temp_path ".journal" in
  let j, _ = journal_exn (Service.Journal.open_ path) in
  Service.Journal.append j ~key:"k1" (outcome "a");
  Service.Journal.append j ~key:"k2" (outcome "b");
  Service.Journal.close j;
  let intact = read_file path in
  (* tear the final record mid-payload, as a crash mid-write would *)
  write_file path (String.sub intact 0 (String.length intact - 5));
  (match Service.Journal.read_back path with
  | Ok _ -> Alcotest.fail "read_back must report the torn tail"
  | Error _ -> ());
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check (list string))
    "valid prefix survives" [ "a" ]
    (List.map (fun (_, o) -> o.Service.Job.id) r.replayed);
  Alcotest.(check bool) "torn, not corrupt" false r.corrupt;
  Alcotest.(check bool) "bytes were dropped" true (r.dropped_bytes > 0);
  (* the tail was truncated away: appends extend a valid log again *)
  Service.Journal.append j ~key:"k3" (outcome "c");
  Service.Journal.close j;
  let all = journal_exn (Service.Journal.read_back path) in
  Alcotest.(check (list string))
    "clean after repair" [ "a"; "c" ]
    (List.map (fun (_, o) -> o.Service.Job.id) all);
  Sys.remove path

let test_journal_crc_corruption () =
  let path = temp_path ".journal" in
  let j, _ = journal_exn (Service.Journal.open_ path) in
  Service.Journal.append j ~key:"k1" (outcome "a");
  let stats = Service.Journal.stats j in
  Service.Journal.append j ~key:"k2" (outcome "b");
  Service.Journal.close j;
  (* flip one payload byte inside the second record *)
  let data = Bytes.of_string (read_file path) in
  let pos = stats.Service.Journal.bytes + 8 + 2 in
  Bytes.set data pos
    (Char.chr (Char.code (Bytes.get data pos) lxor 0x40));
  write_file path (Bytes.to_string data);
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check bool) "flagged corrupt" true r.corrupt;
  Alcotest.(check (list string))
    "records before the damage survive" [ "a" ]
    (List.map (fun (_, o) -> o.Service.Job.id) r.replayed);
  Service.Journal.close j;
  Sys.remove path

(* A damaged byte that leaves the record decodable — the outcome's id
   "b" turned into "c" — is caught by the CRC alone. *)
let test_journal_crc_decodable_damage () =
  let path = temp_path ".journal" in
  let j, _ = journal_exn (Service.Journal.open_ path) in
  Service.Journal.append j ~key:"k1" (outcome "a");
  let stats = Service.Journal.stats j in
  Service.Journal.append j ~key:"k2" (outcome "b");
  Service.Journal.close j;
  let text = read_file path in
  let start = stats.Service.Journal.bytes in
  let rec find i =
    if String.sub text i 3 = {|"b"|} then i + 1 else find (i + 1)
  in
  let data = Bytes.of_string text in
  Bytes.set data (find start) 'c';
  write_file path (Bytes.to_string data);
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check bool) "flagged corrupt" true r.corrupt;
  Alcotest.(check (list string))
    "only the record before the damage replays" [ "a" ]
    (List.map (fun (_, o) -> o.Service.Job.id) r.replayed);
  Service.Journal.close j;
  Sys.remove path

(* Whatever damage lands past the magic — flipped bytes, a truncation at
   any offset, inserted or deleted bytes, a frame written twice — opening
   the journal never raises, replays the records of some prefix of what
   was appended (last write per key, in order of last append), and
   leaves a log that takes further appends. *)
type journal_damage =
  | Flip of int * int  (** at offset, xor mask 1-255 *)
  | Truncate of int
  | Insert of int * string
  | Delete of int * int  (** at offset, length *)
  | Duplicate of int  (** the frame of this append, written twice *)

let pp_journal_damage = function
  | Flip (at, mask) -> Fmt.str "flip %d ^ 0x%02x" at mask
  | Truncate at -> Fmt.str "truncate at %d" at
  | Insert (at, b) -> Fmt.str "insert %S at %d" b at
  | Delete (at, n) -> Fmt.str "delete %d at %d" n at
  | Duplicate i -> Fmt.str "duplicate frame %d" i

let journal_damage_gen =
  QCheck.Gen.(
    let at = int_bound 100_000 in
    pair
      (list_size (1 -- 8) (pair (int_bound 3) (int_bound 20)))
      (oneof
         [
           map2 (fun at m -> Flip (at, 1 + m)) at (int_bound 254);
           map (fun at -> Truncate at) at;
           map2
             (fun at b -> Insert (at, b))
             at
             (string_size ~gen:char (1 -- 16));
           map2 (fun at n -> Delete (at, 1 + n)) at (int_bound 15);
           map (fun i -> Duplicate i) (int_bound 7);
         ]))

(* Last write per key, in order of last append. *)
let journal_replay records =
  List.fold_left
    (fun acc ((k, _) as r) -> List.filter (fun (k', _) -> k' <> k) acc @ [ r ])
    [] records

let qcheck_journal_damage =
  QCheck.Test.make ~count:300
    ~name:"damaged journal opens to a prefix and takes appends"
    (QCheck.make
       ~print:(fun (appends, damage) ->
         Fmt.str "%d appends, %s" (List.length appends)
           (pp_journal_damage damage))
       journal_damage_gen)
    (fun (appends, damage) ->
      let path = temp_path ".journal" in
      let j, _ = journal_exn (Service.Journal.open_ path) in
      let records =
        List.mapi
          (fun i (k, states) ->
            (Fmt.str "k%d" k, outcome ~states (Fmt.str "r%d" i)))
          appends
      in
      (* [ends.(i)]: the offset past append [i]'s frame *)
      let ends =
        Array.of_list
          (List.map
             (fun (key, o) ->
               Service.Journal.append j ~key o;
               (Service.Journal.stats j).Service.Journal.bytes)
             records)
      in
      Service.Journal.close j;
      let data = read_file path in
      let magic = 8 and len = String.length data in
      let past_magic at = magic + (at mod (len - magic + 1)) in
      let damaged =
        match damage with
        | Flip (at, mask) ->
            let b = Bytes.of_string data in
            let at = magic + (at mod (len - magic)) in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
            Bytes.to_string b
        | Truncate at -> String.sub data 0 (past_magic at)
        | Insert (at, bytes) ->
            let at = past_magic at in
            String.sub data 0 at ^ bytes ^ String.sub data at (len - at)
        | Delete (at, n) ->
            let at = past_magic at in
            let n = min n (len - at) in
            String.sub data 0 at ^ String.sub data (at + n) (len - at - n)
        | Duplicate i ->
            let i = i mod Array.length ends in
            let start = if i = 0 then magic else ends.(i - 1) in
            String.sub data 0 ends.(i)
            ^ String.sub data start (ends.(i) - start)
            ^ String.sub data ends.(i) (len - ends.(i))
      in
      write_file path damaged;
      let replays_a_prefix (r : Service.Journal.recovery) =
        List.exists
          (fun k ->
            journal_replay (List.filteri (fun i _ -> i < k) records)
            = r.replayed)
          (List.init (List.length records + 1) Fun.id)
      in
      let ok =
        match Service.Journal.open_ path with
        | Error _ -> false
        | Ok (j, r) -> (
            Service.Journal.append j ~key:"k9" (outcome "after");
            Service.Journal.close j;
            replays_a_prefix r
            &&
            match Service.Journal.open_ path with
            | Error _ -> false
            | Ok (j, r') ->
                Service.Journal.close j;
                r'.dropped_bytes = 0
                && r'.replayed
                   = journal_replay (r.replayed @ [ ("k9", outcome "after") ]))
      in
      Sys.remove path;
      ok)

let test_journal_compaction () =
  let path = temp_path ".journal" in
  let j, _ =
    journal_exn (Service.Journal.open_ ~compact_threshold:8 path)
  in
  (* 3 live keys, rewritten 10x each: automatic compaction must kick
     in (records > 8 and >= 2x live) and keep last-write-wins intact *)
  for round = 1 to 10 do
    List.iter
      (fun key ->
        Service.Journal.append j ~key
          (outcome ~states:round (Printf.sprintf "%s-%d" key round)))
      [ "ka"; "kb"; "kc" ]
  done;
  let s = Service.Journal.stats j in
  Alcotest.(check bool) "compaction ran" true (s.compactions > 0);
  Alcotest.(check int) "live keys" 3 s.live;
  Alcotest.(check bool) "log stayed bounded" true (s.records < 30);
  Service.Journal.close j;
  let j, r = journal_exn (Service.Journal.open_ path) in
  Alcotest.(check (list string))
    "latest round survives for every key"
    [ "ka-10"; "kb-10"; "kc-10" ]
    (List.sort compare
       (List.map (fun (_, o) -> o.Service.Job.id) r.replayed));
  Service.Journal.close j;
  Sys.remove path

(* Replay-then-compact equivalence on real verdicts: journal a run over
   every example model, then check that compacting changes nothing
   about what replay reconstructs. *)
let models_dir () =
  match
    List.find_opt Sys.file_exists [ "../examples/models"; "examples/models" ]
  with
  | Some dir -> dir
  | None -> Alcotest.fail "examples/models not found (missing dune deps?)"

let example_requests () =
  let dir = models_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".aadl")
  |> List.sort compare
  |> List.map (fun f ->
         Service.Job.request ~id:f
           (Service.Job.File (Filename.concat dir f)))

let normalize_replay replayed =
  List.sort compare
    (List.map
       (fun (key, o) ->
         (key, Service.Json.to_string (Service.Job.outcome_to_json o)))
       replayed)

let test_journal_compact_equivalence_examples () =
  let path = temp_path ".journal" in
  let j, _ = journal_exn (Service.Journal.open_ path) in
  let config =
    {
      (Service.Runner.with_cache Service.Runner.default_config) with
      Service.Runner.on_store =
        Some (fun key o -> Service.Journal.append j ~key o);
    }
  in
  (* two passes: the repeat pass hits the cache, so the journal holds
     one record per distinct model — plus rewrites via max_states
     variation to give compaction something to drop *)
  let requests = example_requests () in
  List.iter (fun r -> ignore (Service.Runner.run config r)) requests;
  List.iter (fun r -> ignore (Service.Runner.run config r)) requests;
  Service.Journal.close j;
  let j1, before = journal_exn (Service.Journal.open_ path) in
  Service.Journal.compact j1;
  Service.Journal.close j1;
  let j2, after = journal_exn (Service.Journal.open_ path) in
  Service.Journal.close j2;
  Alcotest.(check bool)
    "journalled at least one verdict" true
    (before.replayed <> []);
  Alcotest.(check (list (pair string string)))
    "replay identical before and after compaction"
    (normalize_replay before.replayed)
    (normalize_replay after.replayed);
  Sys.remove path

let light_model = Gen.periodic_system Gen.light_set
let overloaded_model = Gen.periodic_system Gen.overloaded_set

let request_of_model ~id model = Service.Job.request ~id (Service.Job.Inline model)

let test_shard_warm_restart () =
  let path = temp_path ".journal" in
  let req = request_of_model ~id:"warm" light_model in
  (let shard =
     match
       Service.Shard.create ~journal:path ~name:"warm0"
         Service.Runner.default_config
     with
     | Ok s -> s
     | Error msg -> Alcotest.failf "shard: %s" msg
   in
   let reply =
     Service.Shard.handler shard
       (Service.Json.to_string (Service.Job.request_to_json req))
   in
   (match
      Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
    with
   | Ok o ->
       Alcotest.(check bool) "first run is a miss" false o.Service.Job.cached
   | Error msg -> Alcotest.failf "bad reply: %s" msg);
   Service.Shard.close shard);
  (* new shard, same journal: the verdict must come back from cache
     without re-exploring *)
  let shard =
    match
      Service.Shard.create ~journal:path ~name:"warm0"
        Service.Runner.default_config
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "shard: %s" msg
  in
  (match Service.Shard.recovery shard with
  | Some r ->
      Alcotest.(check int) "one verdict replayed" 1 (List.length r.replayed)
  | None -> Alcotest.fail "no recovery info");
  let reply =
    Service.Shard.handler shard
      (Service.Json.to_string (Service.Job.request_to_json req))
  in
  (match
     Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
   with
  | Ok o ->
      Alcotest.(check bool) "served from journal-warmed cache" true
        o.Service.Job.cached
  | Error msg -> Alcotest.failf "bad reply: %s" msg);
  Service.Shard.close shard;
  Sys.remove path

(* {1 Router and shards on the simulated fabric} *)

(* A two-shard service on the fault fabric: returns (router name,
   fabric, sim, shards) with every link ideal; tests then degrade the
   links they care about. *)
let sim_service ?(seed = 11) ?(shard_count = 2) ?(journals = []) () =
  let sim = Timed.Sim.create () in
  let fabric = Timed.Fabric.create ~seed sim in
  let transport = Service.Transport_sim.make fabric in
  let shard_names =
    List.init shard_count (Printf.sprintf "shard%d")
  in
  let shards =
    List.map
      (fun name ->
        let journal = List.assoc_opt name journals in
        match
          Service.Shard.create ?journal ~name Service.Runner.default_config
        with
        | Ok s ->
            Service.Shard.register s transport;
            s
        | Error msg -> Alcotest.failf "shard %s: %s" name msg)
      shard_names
  in
  let router =
    Service.Router.create ~retries:3 ~call_timeout:1.0 ~shards:shard_names
      transport
  in
  Service.Router.register router transport;
  (router, fabric, sim, shards)

let expected_verdict req =
  (Service.Runner.run Service.Runner.default_config req).Service.Job.verdict

let call_router sim fabric line =
  let result = ref None in
  Timed.Sim.schedule sim (fun () ->
      result :=
        Some
          (Timed.Fabric.call fabric ~timeout:30. ~src:"client" ~dst:"router"
             line));
  Timed.Sim.run_until_quiescent sim;
  match !result with
  | Some (Ok reply) -> reply
  | Some (Error e) ->
      Alcotest.failf "router call failed: %s"
        (match e with
        | Timed.Fabric.Timeout -> "timeout"
        | Timed.Fabric.No_endpoint n -> "no endpoint " ^ n)
  | None -> Alcotest.fail "router call never ran"

let test_sim_routing_correctness () =
  let router, fabric, sim, _ = sim_service () in
  let reqs =
    [
      request_of_model ~id:"light-1" light_model;
      request_of_model ~id:"over-1" overloaded_model;
      request_of_model ~id:"light-2" light_model;  (* duplicate content *)
      request_of_model ~id:"over-2" overloaded_model;
    ]
  in
  let expected_light = expected_verdict (List.hd reqs) in
  let expected_over = expected_verdict (List.nth reqs 1) in
  List.iter
    (fun (r : Service.Job.request) ->
      let reply =
        call_router sim fabric
          (Service.Json.to_string (Service.Job.request_to_json r))
      in
      match
        Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
      with
      | Error msg -> Alcotest.failf "%s: bad reply %s" r.id msg
      | Ok o ->
          Alcotest.(check string)
            (r.id ^ " verdict")
            (Service.Job.verdict_tag
               (if String.length r.id >= 5 && String.sub r.id 0 5 = "light"
                then expected_light
                else expected_over))
            (Service.Job.verdict_tag o.Service.Job.verdict);
          Alcotest.(check string) "reply id echoes request" r.id
            o.Service.Job.id)
    reqs;
  (* same content -> same owner: the repeats must have hit a cache *)
  let stats_reply = call_router sim fabric "{\"op\":\"stats\"}" in
  (match Service.Json.parse stats_reply with
  | Ok json ->
      let hits =
        Option.value ~default:(-1)
          (Option.bind (Service.Json.member "hits" json) Service.Json.to_int)
      in
      Alcotest.(check int) "merged stats count the repeat hits" 2 hits
  | Error msg -> Alcotest.failf "stats: %s" msg);
  ignore router

let test_sim_route_op_and_ownership () =
  let router, fabric, sim, _ = sim_service () in
  let req = request_of_model ~id:"r" light_model in
  let fields =
    match
      Service.Job.request_to_json req
    with
    | Service.Json.Obj fields -> fields
    | _ -> Alcotest.fail "request_to_json not an object"
  in
  let line =
    Service.Json.to_string
      (Service.Json.Obj (("op", Service.Json.String "route") :: fields))
  in
  let reply = call_router sim fabric line in
  match Service.Json.parse reply with
  | Error msg -> Alcotest.failf "route: %s" msg
  | Ok json ->
      let shard =
        Option.bind (Service.Json.member "shard" json) Service.Json.to_str
      in
      let key =
        Option.bind (Service.Json.member "key" json) Service.Json.to_str
      in
      (match (shard, key) with
      | Some shard, Some key ->
          Alcotest.(check bool)
            "owner is one of the shards" true
            (shard = "shard0" || shard = "shard1");
          (* the in-process ownership map agrees with the wire answer,
             and is deterministic *)
          Alcotest.(check string)
            "owner map agrees" shard
            (Service.Router.owner router key);
          Alcotest.(check string) "ownership is stable" shard
            (Service.Router.owner router key)
      | _ -> Alcotest.failf "route reply incomplete: %s" reply)

(* A partition that heals: shard0 unreachable for the first minute,
   then the link steps back to ideal (Fabric.schedule).  Requests keep
   being answered throughout — first by failover to shard1, after the
   heal by the owner again. *)
let test_sim_healing_partition () =
  let router, fabric, sim, _ = sim_service () in
  ignore router;
  let dead = { Timed.Fabric.ideal with drop = 1.0 } in
  Timed.Fabric.link fabric ~src:"router" ~dst:"shard0" dead;
  Timed.Fabric.schedule fabric ~at:60. ~src:"router" ~dst:"shard0"
    Timed.Fabric.ideal;
  let req id = request_of_model ~id light_model in
  let expected = expected_verdict (req "x") in
  let replies = ref [] in
  Timed.Sim.schedule sim (fun () ->
      (* one request during the partition, one after the heal *)
      List.iter
        (fun (at, id) ->
          Timed.Sim.sleep_until sim at;
          let line =
            Service.Json.to_string (Service.Job.request_to_json (req id))
          in
          replies :=
            Timed.Fabric.call fabric ~timeout:300. ~src:"client" ~dst:"router"
              line
            :: !replies)
        [ (0., "during"); (90., "after") ]);
  Timed.Sim.run_until_quiescent sim;
  let replies = List.rev !replies in
  Alcotest.(check int) "both answered" 2 (List.length replies);
  List.iter
    (fun reply ->
      match reply with
      | Error _ -> Alcotest.fail "call failed despite failover"
      | Ok reply -> (
          match
            Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
          with
          | Ok o ->
              Alcotest.(check string) "true verdict through the partition"
                (Service.Job.verdict_tag expected)
                (Service.Job.verdict_tag o.Service.Job.verdict)
          | Error msg -> Alcotest.failf "bad reply: %s" msg))
    replies;
  (* the delivery log must show the link step *)
  let steps =
    List.filter
      (fun (e : Timed.Fabric.event) -> e.kind = Timed.Fabric.Link_change)
      (Timed.Fabric.log fabric)
  in
  Alcotest.(check int) "one link-change event logged" 1 (List.length steps)

(* Mid-batch shard crash: run half a batch against a journalled sim
   service, restart the shard from its journal, run the rest.  Verdict
   sequence must equal the fault-free run, and the restarted shard must
   answer repeats from its journal-warmed cache. *)
let test_sim_shard_restart_mid_batch () =
  let requests =
    [
      request_of_model ~id:"a" light_model;
      request_of_model ~id:"b" overloaded_model;
      request_of_model ~id:"a2" light_model;
      request_of_model ~id:"b2" overloaded_model;
    ]
  in
  (* Each [run_service] builds a whole service process over the named
     journal file — calling it twice with the same path IS the restart
     (the first service's journal survives; nothing is closed cleanly,
     as in a crash the flush-per-append guarantees durability). *)
  let run_service journals requests_slice =
    let router, fabric, sim, _ = sim_service ~shard_count:1 ~journals () in
    ignore router;
    List.map
      (fun r ->
        let line = Service.Json.to_string (Service.Job.request_to_json r) in
        let reply = call_router sim fabric line in
        match
          Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
        with
        | Ok o -> o
        | Error msg -> Alcotest.failf "bad reply: %s" msg)
      requests_slice
  in
  let path = temp_path ".journal" in
  let journals = [ ("shard0", path) ] in
  let first = run_service journals (List.filteri (fun i _ -> i < 2) requests) in
  let second =
    run_service journals (List.filteri (fun i _ -> i >= 2) requests)
  in
  let with_restart = first @ second in
  (* restart-free reference run, fresh journal *)
  let ref_path = temp_path ".journal" in
  let reference = run_service [ ("shard0", ref_path) ] requests in
  Alcotest.(check (list string))
    "verdicts identical to the fault-free run"
    (List.map
       (fun (o : Service.Job.outcome) -> Service.Job.verdict_tag o.verdict)
       reference)
    (List.map
       (fun (o : Service.Job.outcome) -> Service.Job.verdict_tag o.verdict)
       with_restart);
  (* the restarted service served the repeats from its journal-warmed
     cache: a2/b2 ran after the restart and must be cache hits *)
  List.iter
    (fun (o : Service.Job.outcome) ->
      if String.length o.id = 2 then
        Alcotest.(check bool) (o.id ^ " cached after restart") true o.cached)
    second;
  Sys.remove path;
  Sys.remove ref_path

(* {1 Seeded fault matrix (qcheck): correctness and replay} *)

type dist_scenario = {
  seed : int;
  to_router : Timed.Fabric.faults;
  to_shard : Timed.Fabric.faults;
  from_shard : Timed.Fabric.faults;
  ids : int list;  (* request schedule: model index per call *)
}

let dist_faults_gen =
  QCheck.Gen.(
    map
      (fun (delay, jitter, drop, duplicate, reorder) ->
        { Timed.Fabric.delay; jitter; drop; duplicate; reorder })
      (tup5
         (float_bound_inclusive 0.05)
         (float_bound_inclusive 0.02)
         (float_bound_inclusive 0.3)
         (float_bound_inclusive 0.3)
         (float_bound_inclusive 0.3)))

let dist_scenario_gen =
  QCheck.Gen.(
    map
      (fun (seed, to_router, to_shard, from_shard, ids) ->
        { seed; to_router; to_shard; from_shard; ids })
      (tup5 (int_bound 10_000) dist_faults_gen dist_faults_gen dist_faults_gen
         (list_size (1 -- 8) (int_bound 1))))

let pp_dist_scenario s =
  Fmt.str "seed=%d calls=%d drop(r=%.2f s=%.2f b=%.2f) dup(%.2f %.2f %.2f)"
    s.seed (List.length s.ids) s.to_router.Timed.Fabric.drop
    s.to_shard.Timed.Fabric.drop s.from_shard.Timed.Fabric.drop
    s.to_router.Timed.Fabric.duplicate s.to_shard.Timed.Fabric.duplicate
    s.from_shard.Timed.Fabric.duplicate

(* The two model verdicts, computed once outside the property. *)
let model_pool = [| light_model; overloaded_model |]

let expected_tags =
  lazy
    (Array.map
       (fun m ->
         Service.Job.verdict_tag
           (expected_verdict (request_of_model ~id:"e" m)))
       model_pool)

let run_dist_scenario s =
  let sim = Timed.Sim.create () in
  let fabric = Timed.Fabric.create ~seed:s.seed sim in
  let transport = Service.Transport_sim.make fabric in
  let shard_names = [ "shard0"; "shard1" ] in
  List.iter
    (fun name ->
      match
        Service.Shard.create ~name Service.Runner.default_config
      with
      | Ok shard -> Service.Shard.register shard transport
      | Error msg -> Alcotest.failf "shard: %s" msg)
    shard_names;
  let router =
    Service.Router.create ~retries:2 ~call_timeout:0.5 ~shards:shard_names
      transport
  in
  Service.Router.register router transport;
  Timed.Fabric.link fabric ~src:"client" ~dst:"router" s.to_router;
  List.iter
    (fun shard ->
      Timed.Fabric.link fabric ~src:"router" ~dst:shard s.to_shard;
      Timed.Fabric.link fabric ~src:shard ~dst:"router" s.from_shard)
    shard_names;
  let replies = ref [] in
  Timed.Sim.schedule sim (fun () ->
      List.iteri
        (fun i model_idx ->
          let r =
            request_of_model
              ~id:(Printf.sprintf "c%d-m%d" i model_idx)
              model_pool.(model_idx)
          in
          let line =
            Service.Json.to_string (Service.Job.request_to_json r)
          in
          replies :=
            ( model_idx,
              Timed.Fabric.call fabric ~timeout:5. ~src:"client" ~dst:"router"
                line )
            :: !replies)
        s.ids);
  (* The whole exchange runs on virtual time — otherwise the real-clock
     wall_s embedded in each outcome would differ between two runs and
     break bit-identical replay. *)
  Timed.Sim.with_clock sim (fun () -> Timed.Sim.run_until_quiescent sim);
  (List.rev !replies, Timed.Fabric.log_lines fabric, Timed.Sim.events_run sim)

(* Whatever the fault schedule does — drops, duplicated requests
   re-running shards, reordered replies, retries, failovers — a reply
   that carries a verdict is the TRUE verdict for that model.  Faults
   may surface as timeouts or explicit error outcomes, never as a wrong
   answer. *)
let qcheck_dist_verdicts_correct =
  QCheck.Test.make ~count:25
    ~name:"routed verdicts are never wrong under faults"
    (QCheck.make ~print:pp_dist_scenario dist_scenario_gen)
    (fun s ->
      let replies, _, _ = run_dist_scenario s in
      List.for_all
        (fun (model_idx, reply) ->
          match reply with
          | Error Timed.Fabric.Timeout -> true  (* client gave up: allowed *)
          | Error (Timed.Fabric.No_endpoint _) -> false
          | Ok reply -> (
              match
                Result.bind (Service.Json.parse reply)
                  Service.Job.outcome_of_json
              with
              | Error _ -> false
              | Ok o -> (
                  match Service.Job.verdict_tag o.Service.Job.verdict with
                  | "error" -> true  (* explicit infrastructure failure *)
                  | tag -> tag = (Lazy.force expected_tags).(model_idx))))
        replies)

(* Bit-identical replay: same seed, same links, same schedule -> same
   replies, same delivery log, same event count. *)
let qcheck_dist_replay_identical =
  QCheck.Test.make ~count:15
    ~name:"router/shard fault schedule replays bit-identically"
    (QCheck.make ~print:pp_dist_scenario dist_scenario_gen)
    (fun s ->
      let r1, log1, n1 = run_dist_scenario s in
      let r2, log2, n2 = run_dist_scenario s in
      r1 = r2 && log1 = log2 && n1 = n2)

(* {1 Fabric trace export} *)

let test_fabric_trace_export () =
  let sim = Timed.Sim.create () in
  let fabric = Timed.Fabric.create ~seed:5 sim in
  Timed.Fabric.serve fabric "svc" String.uppercase_ascii;
  Timed.Fabric.link fabric ~src:"client" ~dst:"svc"
    { Timed.Fabric.ideal with delay = 0.5; duplicate = 1.0 };
  Timed.Sim.with_clock sim (fun () ->
      Obs.Trace.start ();
      Timed.Sim.schedule sim (fun () ->
          ignore (Timed.Fabric.call fabric ~timeout:10. ~src:"client" ~dst:"svc" "hi"));
      Timed.Sim.run_until_quiescent sim;
      Service.Fabric_trace.inject fabric;
      Obs.Trace.stop ());
  let json = Obs.Trace.to_string () in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in trace") true (contains needle))
    [ "send #"; "deliver #"; "duplicate #"; "client->svc" ]

(* {1 Trace-context propagation} *)

(* Every traced event's span identity, pulled out of the trace JSON:
   (name, trace_id, span_id, parent_id). *)
let trace_spans () =
  match Service.Json.parse (Obs.Trace.to_string ()) with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok json -> (
      match Service.Json.member "traceEvents" json with
      | Some (Service.Json.List evs) ->
          List.filter_map
            (fun ev ->
              match
                ( Option.bind (Service.Json.member "name" ev)
                    Service.Json.to_str,
                  Service.Json.member "args" ev )
              with
              | Some name, Some (Service.Json.Obj args) ->
                  let s k =
                    match List.assoc_opt k args with
                    | Some (Service.Json.String v) -> Some v
                    | _ -> None
                  in
                  Some (name, s "trace_id", s "span_id", s "parent_id")
              | Some name, _ -> Some (name, None, None, None)
              | _ -> None)
            evs
      | _ -> Alcotest.fail "missing traceEvents")

(* One traced routed batch over the simulated fabric with duplication
   and reordering (no drops, so there are no retries/failovers and every
   server span is a plain child).  Returns the full trace document. *)
let traced_sim_run ?(faults = Timed.Fabric.ideal) seed =
  let sim = Timed.Sim.create () in
  let fabric = Timed.Fabric.create ~seed sim in
  let transport = Service.Transport_sim.make fabric in
  let shard_names = [ "shard0"; "shard1" ] in
  List.iter
    (fun name ->
      match Service.Shard.create ~name Service.Runner.default_config with
      | Ok s -> Service.Shard.register s transport
      | Error msg -> Alcotest.failf "shard: %s" msg)
    shard_names;
  let router =
    Service.Router.create ~retries:3 ~call_timeout:10. ~shards:shard_names
      transport
  in
  Service.Router.register router transport;
  Timed.Fabric.link fabric ~src:"client" ~dst:"router" faults;
  List.iter
    (fun s ->
      Timed.Fabric.link fabric ~src:"router" ~dst:s faults;
      Timed.Fabric.link fabric ~src:s ~dst:"router" faults)
    shard_names;
  let reqs =
    List.init 4 (fun i ->
        request_of_model
          ~id:(Printf.sprintf "t%d" i)
          model_pool.(i mod Array.length model_pool))
  in
  Timed.Sim.with_clock sim (fun () ->
      Obs.Trace.start ();
      List.iter
        (fun (r : Service.Job.request) ->
          Timed.Sim.schedule sim (fun () ->
              ignore
                (Obs.Span.with_ ~name:"client.request"
                   ~attrs:[ ("id", r.id) ]
                   (fun () ->
                     let line =
                       Service.Json.to_string
                         (Service.Protocol.set_trace
                            (Service.Job.request_to_json r)
                            (Obs.Context.current ()))
                     in
                     Timed.Fabric.call fabric ~timeout:60. ~src:"client"
                       ~dst:"router" line))))
        reqs;
      Timed.Sim.run_until_quiescent sim;
      Service.Fabric_trace.inject fabric;
      Obs.Trace.stop ());
  Obs.Trace.to_string ()

let dup_reorder =
  { Timed.Fabric.ideal with delay = 0.01; duplicate = 0.5; reorder = 0.5 }

let test_traced_spans_under_faults () =
  ignore (traced_sim_run ~faults:dup_reorder 42);
  let spans = trace_spans () in
  let span_ids = List.filter_map (fun (_, _, sid, _) -> sid) spans in
  Alcotest.(check int)
    "span ids are unique" (List.length span_ids)
    (List.length (List.sort_uniq compare span_ids));
  (* duplicated deliveries must not mint duplicate server spans: with no
     drops there is exactly one request/router span per parent edge *)
  let edges =
    List.filter_map
      (fun (name, _, _, parent) ->
        match (name, parent) with
        | ("router.request" | "service.request"), Some p -> Some (name, p)
        | _ -> None)
      spans
  in
  Alcotest.(check bool) "server spans exist" true (edges <> []);
  Alcotest.(check int)
    "one server span per parent edge" (List.length edges)
    (List.length (List.sort_uniq compare edges));
  (* no orphans: every recorded parent_id is some recorded span *)
  List.iter
    (fun (name, _, _, parent) ->
      match parent with
      | None -> ()
      | Some p ->
          Alcotest.(check bool)
            (name ^ " parent " ^ p ^ " resolves")
            true (List.mem p span_ids))
    spans;
  Alcotest.(check bool)
    "router spans present" true
    (List.exists (fun (n, _, _, _) -> n = "router.request") spans);
  Alcotest.(check bool)
    "shard spans present" true
    (List.exists (fun (n, _, _, _) -> n = "service.request") spans)

let test_traced_replay_identical () =
  let a = traced_sim_run ~faults:dup_reorder 7 in
  let b = traced_sim_run ~faults:dup_reorder 7 in
  Alcotest.(check bool)
    "same seed, bit-identical trace" true (String.equal a b);
  Alcotest.(check bool)
    "different seed, different delivery schedule" true
    (not (String.equal a (traced_sim_run ~faults:dup_reorder 8)))

(* {1 Health and cluster ops over the sim} *)

(* The router memoizes each distinct model's routing key.  A
   long-lived router meets ever new models, so the memo must stay
   bounded: routing 5,000 distinct inline models may not keep more than
   about two memos' worth (1,024 entries, some 24 words each) of them
   reachable from the router, and the first model still routes to the
   same shard after the memo has been emptied. *)
let test_route_memo_bounded () =
  let sim = Timed.Sim.create () in
  let transport =
    Service.Transport_sim.make (Timed.Fabric.create ~seed:3 sim)
  in
  let router =
    Service.Router.create ~shards:[ "shard0"; "shard1"; "shard2" ] transport
  in
  let request i =
    Service.Job.request ~id:(string_of_int i)
      (Service.Job.Inline
         (Gen.periodic_system
            [
              {
                Gen.name = Fmt.str "t%d" i;
                period_ms = 10;
                cet_min_ms = 1;
                cet_max_ms = 2;
                deadline_ms = 10;
              };
            ]))
  in
  let first = Service.Router.route router (request 0) in
  let words () = Obj.reachable_words (Obj.repr router) in
  let empty = words () in
  for i = 1 to 5_000 do
    ignore (Service.Router.route router (request i))
  done;
  let growth = words () - empty in
  if growth > 50_000 then
    Alcotest.failf "routing 5,000 models left %d words reachable from the router"
      growth;
  Alcotest.(check (pair string string))
    "same owner and key after the memo was emptied" first
    (Service.Router.route router (request 0))

let test_health_ops () =
  let router, fabric, sim, _ = sim_service () in
  ignore router;
  (* router health aggregates shard reachability *)
  let health = call_router sim fabric {|{"op":"health"}|} in
  (match Service.Json.parse health with
  | Error msg -> Alcotest.failf "health: %s" msg
  | Ok json ->
      let str k =
        Option.bind (Service.Json.member k json) Service.Json.to_str
      in
      let int k =
        Option.bind (Service.Json.member k json) Service.Json.to_int
      in
      Alcotest.(check (option string)) "role" (Some "router") (str "role");
      Alcotest.(check (option int)) "both shards reachable" (Some 2)
        (int "reachable");
      Alcotest.(check (option int)) "shard count" (Some 2)
        (int "shard_count");
      Alcotest.(check bool) "ok" true
        (Service.Json.member "ok" json = Some (Service.Json.Bool true)));
  (* a shard answers health directly, with its own role *)
  let shard_health = ref None in
  Timed.Sim.schedule sim (fun () ->
      shard_health :=
        Some
          (Timed.Fabric.call fabric ~timeout:30. ~src:"client" ~dst:"shard0"
             {|{"op":"health"}|}));
  Timed.Sim.run_until_quiescent sim;
  (match !shard_health with
  | Some (Ok reply) -> (
      match Service.Json.parse reply with
      | Error msg -> Alcotest.failf "shard health: %s" msg
      | Ok json ->
          Alcotest.(check (option string))
            "shard role" (Some "shard")
            (Option.bind (Service.Json.member "role" json)
               Service.Json.to_str);
          Alcotest.(check bool)
            "queue depth reported" true
            (Service.Json.member "queue_depth" json <> None);
          Alcotest.(check bool)
            "cache section reported" true
            (Service.Json.member "cache" json <> None))
  | _ -> Alcotest.fail "shard health call failed");
  (* cluster-stats merges the per-shard view *)
  let cluster = call_router sim fabric {|{"op":"cluster-stats"}|} in
  match Service.Json.parse cluster with
  | Error msg -> Alcotest.failf "cluster-stats: %s" msg
  | Ok json -> (
      Alcotest.(check (option int))
        "all shards reachable" (Some 2)
        (Option.bind (Service.Json.member "reachable" json)
           Service.Json.to_int);
      match Service.Json.member "shards" json with
      | Some (Service.Json.Obj per) ->
          Alcotest.(check int) "one entry per shard" 2 (List.length per);
          List.iter
            (fun (name, entry) ->
              Alcotest.(check bool) (name ^ " reachable") true
                (Service.Json.member "reachable" entry
                = Some (Service.Json.Bool true));
              match Service.Json.member "health" entry with
              | Some h ->
                  Alcotest.(check bool)
                    (name ^ " health has cache")
                    true
                    (Service.Json.member "cache" h <> None)
              | None -> Alcotest.failf "%s: no health" name)
            per
      | _ -> Alcotest.fail "no shards member")

(* {1 Socket transport on loopback} *)

let test_addr_parsing () =
  (match Service.Transport_socket.parse_addr "unix:/tmp/x.sock" with
  | Ok (Service.Transport_socket.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match Service.Transport_socket.parse_addr "tcp:127.0.0.1:7701" with
  | Ok (Service.Transport_socket.Tcp ("127.0.0.1", 7701)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun bad ->
      match Service.Transport_socket.parse_addr bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "nope"; "unix:"; "tcp:host"; "tcp:host:0"; "tcp::80"; "ftp:x:1" ]

let sock_path name =
  (* Unix socket paths are length-limited (~104 bytes): keep them in
     /tmp regardless of TMPDIR *)
  Printf.sprintf "/tmp/aadl_%d_%s.sock" (Unix.getpid ()) name

let test_socket_echo_and_timeout () =
  let t = Service.Transport_socket.create () in
  let addr = "unix:" ^ sock_path "echo" in
  Service.Transport_socket.serve t addr (fun line -> "echo:" ^ line);
  (match Service.Transport_socket.call t ~src:"c" ~dst:addr "hello" with
  | Ok reply -> Alcotest.(check string) "echoed" "echo:hello" reply
  | Error e ->
      Alcotest.failf "call: %s" (Service.Transport.error_message e));
  (* several exchanges reuse the pooled connection *)
  (match Service.Transport_socket.call t ~src:"c" ~dst:addr "again" with
  | Ok reply -> Alcotest.(check string) "second call" "echo:again" reply
  | Error e ->
      Alcotest.failf "call: %s" (Service.Transport.error_message e));
  (* nothing listens here *)
  (match
     Service.Transport_socket.call t ~src:"c"
       ~dst:("unix:" ^ sock_path "nobody") "x"
   with
  | Error (Service.Transport.No_endpoint _) -> ()
  | Ok _ -> Alcotest.fail "call to nothing succeeded"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Service.Transport.error_message e));
  Service.Transport_socket.stop t;
  Alcotest.(check bool)
    "socket path unlinked" false
    (Sys.file_exists (sock_path "echo"))

let test_socket_slow_handler_timeout () =
  let t = Service.Transport_socket.create () in
  let addr = "unix:" ^ sock_path "slow" in
  Service.Transport_socket.serve t addr (fun line ->
      Thread.delay 2.0;
      line);
  (match Service.Transport_socket.call t ~timeout:0.2 ~src:"c" ~dst:addr "x" with
  | Error Service.Transport.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected timeout"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Service.Transport.error_message e));
  (* the timed-out connection must not poison the next call: a fresh
     one is opened and the (slow) reply still comes back *)
  (match Service.Transport_socket.call t ~timeout:5. ~src:"c" ~dst:addr "y" with
  | Ok reply -> Alcotest.(check string) "fresh connection works" "y" reply
  | Error e ->
      Alcotest.failf "post-timeout call: %s" (Service.Transport.error_message e));
  Service.Transport_socket.stop t

(* The same router/shard protocol the sim suite exercises, over real
   fds on loopback: two socket shards fronted by a socket router. *)
let test_socket_router_shards () =
  let t = Service.Transport_socket.create () in
  let transport = Service.Transport_socket.make t in
  let shard_addrs =
    [ "unix:" ^ sock_path "s0"; "unix:" ^ sock_path "s1" ]
  in
  List.iter
    (fun addr ->
      match
        Service.Shard.create ~name:addr Service.Runner.default_config
      with
      | Ok shard -> Service.Shard.register shard transport
      | Error msg -> Alcotest.failf "shard: %s" msg)
    shard_addrs;
  let router =
    Service.Router.create ~name:("unix:" ^ sock_path "router")
      ~call_timeout:60. ~shards:shard_addrs transport
  in
  Service.Router.register router transport;
  let client = Service.Transport_socket.create () in
  let call line =
    match
      Service.Transport_socket.call client ~timeout:120. ~src:"client"
        ~dst:("unix:" ^ sock_path "router") line
    with
    | Ok reply -> reply
    | Error e ->
        Alcotest.failf "router call: %s" (Service.Transport.error_message e)
  in
  let req id model = request_of_model ~id model in
  let expected = expected_verdict (req "e" light_model) in
  List.iter
    (fun (id, model) ->
      let reply =
        call (Service.Json.to_string (Service.Job.request_to_json (req id model)))
      in
      match
        Result.bind (Service.Json.parse reply) Service.Job.outcome_of_json
      with
      | Ok o ->
          if model == light_model then
            Alcotest.(check string) (id ^ " verdict over sockets")
              (Service.Job.verdict_tag expected)
              (Service.Job.verdict_tag o.Service.Job.verdict)
      | Error msg -> Alcotest.failf "%s: bad reply %s" id msg)
    [ ("a", light_model); ("b", overloaded_model); ("a2", light_model) ];
  (* merged stats over sockets: the duplicate was someone's cache hit *)
  let stats = call "{\"op\":\"stats\"}" in
  (match Service.Json.parse stats with
  | Ok json ->
      let hits =
        Option.value ~default:(-1)
          (Option.bind (Service.Json.member "hits" json) Service.Json.to_int)
      in
      Alcotest.(check int) "one hit across the shard fleet" 1 hits
  | Error msg -> Alcotest.failf "stats: %s" msg);
  Service.Transport_socket.stop client;
  Service.Transport_socket.stop t

(* The tentpole end to end over real fds: a traced client request
   through a socket router to a socket shard must come back as one
   causally-linked chain — client.request <- router.request <-
   service.request, all on one trace id. *)
let test_socket_trace_chain () =
  let t = Service.Transport_socket.create () in
  let transport = Service.Transport_socket.make t in
  let shard_addrs = [ "unix:" ^ sock_path "tc0"; "unix:" ^ sock_path "tc1" ] in
  List.iter
    (fun addr ->
      match Service.Shard.create ~name:addr Service.Runner.default_config with
      | Ok shard -> Service.Shard.register shard transport
      | Error msg -> Alcotest.failf "shard: %s" msg)
    shard_addrs;
  let router =
    Service.Router.create
      ~name:("unix:" ^ sock_path "tcr")
      ~call_timeout:60. ~shards:shard_addrs transport
  in
  Service.Router.register router transport;
  let client = Service.Transport_socket.create () in
  Obs.Trace.start ();
  (match
     Obs.Span.with_ ~name:"client.request" (fun () ->
         let r = request_of_model ~id:"traced" light_model in
         let line =
           Service.Json.to_string
             (Service.Protocol.set_trace
                (Service.Job.request_to_json r)
                (Obs.Context.current ()))
         in
         Service.Transport_socket.call client ~timeout:120. ~src:"client"
           ~dst:("unix:" ^ sock_path "tcr")
           line)
   with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "traced call: %s" (Service.Transport.error_message e));
  Obs.Trace.stop ();
  Service.Transport_socket.stop client;
  Service.Transport_socket.stop t;
  let spans = trace_spans () in
  let find name =
    match List.find_opt (fun (n, _, _, _) -> n = name) spans with
    | Some s -> s
    | None -> Alcotest.failf "no %s span" name
  in
  let _, c_trace, c_span, c_parent = find "client.request" in
  let _, r_trace, r_span, r_parent = find "router.request" in
  let _, s_trace, _, s_parent = find "service.request" in
  Alcotest.(check (option string)) "client is the root" None c_parent;
  Alcotest.(check bool) "ids assigned" true (c_span <> None && r_span <> None);
  Alcotest.(check (option string)) "router parents client" c_span r_parent;
  Alcotest.(check (option string)) "shard parents router" r_span s_parent;
  Alcotest.(check (option string)) "one trace id: router" c_trace r_trace;
  Alcotest.(check (option string)) "one trace id: shard" c_trace s_trace

let () =
  Alcotest.run "dist"
    [
      ( "journal",
        [
          Alcotest.test_case "append/replay roundtrip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "truncated tail is repaired" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "CRC corruption is detected" `Quick
            test_journal_crc_corruption;
          Alcotest.test_case "compaction keeps last writes" `Quick
            test_journal_compaction;
          Alcotest.test_case "replay = compact-then-replay on examples"
            `Slow test_journal_compact_equivalence_examples;
          Alcotest.test_case "shard restart keeps the cache warm" `Quick
            test_shard_warm_restart;
          QCheck_alcotest.to_alcotest qcheck_journal_damage;
          Alcotest.test_case "CRC catches a record that still decodes" `Quick
            test_journal_crc_decodable_damage;
        ] );
      ( "sim-protocol",
        [
          Alcotest.test_case "routing correctness and merged stats" `Quick
            test_sim_routing_correctness;
          Alcotest.test_case "route op and stable ownership" `Quick
            test_sim_route_op_and_ownership;
          Alcotest.test_case "healing partition fails over" `Quick
            test_sim_healing_partition;
          Alcotest.test_case "shard restart mid-batch recovers" `Quick
            test_sim_shard_restart_mid_batch;
          Alcotest.test_case "health and cluster-stats ops" `Quick
            test_health_ops;
          Alcotest.test_case "route key memo is bounded" `Quick
            test_route_memo_bounded;
        ] );
      ( "fault-matrix",
        [
          QCheck_alcotest.to_alcotest qcheck_dist_verdicts_correct;
          QCheck_alcotest.to_alcotest qcheck_dist_replay_identical;
        ] );
      ( "trace",
        [
          Alcotest.test_case "traced spans under dup/reorder faults" `Quick
            test_traced_spans_under_faults;
          Alcotest.test_case "traced run replays bit-identically" `Quick
            test_traced_replay_identical;
          Alcotest.test_case "fabric log exports to Chrome trace" `Quick
            test_fabric_trace_export;
        ] );
      ( "socket",
        [
          Alcotest.test_case "address parsing" `Quick test_addr_parsing;
          Alcotest.test_case "echo, pooling, no-endpoint" `Quick
            test_socket_echo_and_timeout;
          Alcotest.test_case "timeout and connection hygiene" `Quick
            test_socket_slow_handler_timeout;
          Alcotest.test_case "router and shards on loopback" `Quick
            test_socket_router_shards;
          Alcotest.test_case "trace chain over loopback" `Quick
            test_socket_trace_chain;
        ] );
    ]
