(* Workload and model generation: reference AADL models (including the
   cruise-control system of the paper's Fig. 1) and synthetic task-set
   generators used by the benchmark harness. *)

(* {1 Synthetic periodic task sets} *)

type periodic_spec = {
  name : string;
  period_ms : int;
  cet_min_ms : int;
  cet_max_ms : int;
  deadline_ms : int;
}

let protocol_name = Aadl.Props.scheduling_protocol_to_string

(* A single-processor system with the given periodic threads. *)
let periodic_system ?(protocol = Aadl.Props.Rate_monotonic) specs =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "processor cpu\nproperties\n  Scheduling_Protocol => %s;\nend cpu;\n\n"
    (protocol_name protocol);
  List.iter
    (fun s ->
      pf "thread %s\nproperties\n" s.name;
      pf "  Dispatch_Protocol => Periodic;\n";
      pf "  Period => %d ms;\n" s.period_ms;
      if s.cet_min_ms = s.cet_max_ms then
        pf "  Compute_Execution_Time => %d ms;\n" s.cet_min_ms
      else
        pf "  Compute_Execution_Time => %d ms .. %d ms;\n" s.cet_min_ms
          s.cet_max_ms;
      pf "  Compute_Deadline => %d ms;\n" s.deadline_ms;
      pf "end %s;\n\n" s.name)
    specs;
  pf "system root\nend root;\n\nsystem implementation root.impl\nsubcomponents\n";
  pf "  cpu1: processor cpu;\n";
  List.iter (fun s -> pf "  %s_i: thread %s;\n" s.name s.name) specs;
  pf "properties\n";
  List.iter
    (fun s ->
      pf "  Actual_Processor_Binding => reference (cpu1) applies to %s_i;\n"
        s.name)
    specs;
  pf "end root.impl;\n";
  Buffer.contents buf

let simple_spec ~name ~period_ms ~cet_ms ?deadline_ms () =
  {
    name;
    period_ms;
    cet_min_ms = cet_ms;
    cet_max_ms = cet_ms;
    deadline_ms = Option.value deadline_ms ~default:period_ms;
  }

(* UUniFast (Bini & Buttazzo): unbiased utilization splits for [n] tasks
   summing to [u].  Deterministic given the Random state. *)
let uunifast ~state ~n ~u =
  let rec go i sum acc =
    if i = n then List.rev (sum :: acc)
    else
      let next =
        sum *. (Random.State.float state 1.0 ** (1.0 /. float_of_int (n - i)))
      in
      go (i + 1) next ((sum -. next) :: acc)
  in
  if n <= 0 then [] else go 1 u []

(* A family of [threads] indistinguishable unit-cet threads at total
   utilization ~ [utilization]: every thread has the same period, cet and
   deadline, so under EDF (whose priority expressions depend only on the
   timing parameters) the translation finds them interchangeable and the
   orbit reduction collapses their permutations.  The period is
   round(threads/utilization) clamped to >= 2 so a thread never saturates
   its own period. *)
let replicated_family ?(protocol = Aadl.Props.Edf) ~threads ~utilization () =
  if threads < 1 then invalid_arg "replicated_family: threads < 1";
  if utilization <= 0.0 then invalid_arg "replicated_family: utilization <= 0";
  let period =
    max 2 (int_of_float (Float.round (float_of_int threads /. utilization)))
  in
  periodic_system ~protocol
    (List.init threads (fun i ->
         simple_spec
           ~name:(Printf.sprintf "t%d" (i + 1))
           ~period_ms:period ~cet_ms:1 ()))

(* The E6 scaling family: [n] unit-cet threads with periods 4, 6, 8, ...
   (pairwise distinct, so no two threads are interchangeable). *)
let e6_model n =
  periodic_system
    (List.init n (fun i ->
         simple_spec
           ~name:(Printf.sprintf "t%d" (i + 1))
           ~period_ms:(4 + (2 * i))
           ~cet_ms:1 ()))

(* Its unschedulable variant: t1's execution time ranges over [1,3].
   Worst-case branches starve t2 out of its first deadline (a shallow
   deadlock), while best-case branches stay schedulable and keep
   generating states. *)
let e6_unsched n =
  periodic_system
    (List.init n (fun i ->
         if i = 0 then
           {
             name = "t1";
             period_ms = 4;
             cet_min_ms = 1;
             cet_max_ms = 3;
             deadline_ms = 4;
           }
         else
           simple_spec
             ~name:(Printf.sprintf "t%d" (i + 1))
             ~period_ms:(4 + (2 * i))
             ~cet_ms:1 ()))

(* Random periodic task set with total utilization [u]: periods drawn from
   a harmonic-ish palette to keep hyperperiods (and hence state spaces)
   bounded. *)
let random_specs ~seed ~n ~u =
  let state = Random.State.make [| seed |] in
  let palette = [| 4; 5; 8; 10; 16; 20 |] in
  List.mapi
    (fun i ui ->
      let period = palette.(Random.State.int state (Array.length palette)) in
      let cet = max 1 (int_of_float (Float.round (ui *. float_of_int period))) in
      let cet = min cet period in
      {
        name = Printf.sprintf "t%d" (i + 1);
        period_ms = period;
        cet_min_ms = cet;
        cet_max_ms = cet;
        deadline_ms = period;
      })
    (uunifast ~state ~n ~u)

(* {1 The task sets used in the write-up} *)

(* Schedulable under any reasonable policy: U ~ 0.58. *)
let light_set =
  [
    simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
    simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
  ]

(* U = 2/5 + 4/7 ~ 0.971: above the Liu-Layland bound; RM misses t2's
   deadline but EDF and LLF schedule it — the crossover example. *)
let crossover_set =
  [
    simple_spec ~name:"t1" ~period_ms:5 ~cet_ms:2 ();
    simple_spec ~name:"t2" ~period_ms:7 ~cet_ms:4 ();
  ]

(* U = 1.25: infeasible under every policy. *)
let overloaded_set =
  [
    simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:2 ();
    simple_spec ~name:"t2" ~period_ms:4 ~cet_ms:3 ();
  ]

(* {1 The cruise-control system of Fig. 1}

   Reconstructed from the paper: two processors connected by a bus; the
   HCI subsystem (ButtonPanel, DriverModeLogic, InstrumentPanel, RefSpeed)
   bound to one, the CruiseControlLaws subsystem (Cruise1, Cruise2) bound
   to the other.  All connections are data connections (so the translation
   introduces no queues: six thread processes and six dispatchers); the
   DriverModeLogic and RefSpeed outputs cross the bus (Section 4.1-4.2).
   Timing properties are not given in the paper; the values here keep both
   processors below their utilization bounds.  [overload] scales Cruise1's
   execution time to produce the non-schedulable variant. *)
let cruise_control ?(overload = false) () =
  let cruise1_cet = if overload then 45 else 20 in
  Printf.sprintf
    {|
processor ppc
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end ppc;

bus vme
end vme;

thread button_panel
features
  cmd: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 100 ms;
  Compute_Execution_Time => 10 ms;
  Compute_Deadline => 100 ms;
end button_panel;

thread driver_mode_logic
features
  cmd: in data port;
  mode: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 50 ms;
  Compute_Execution_Time => 10 ms;
  Compute_Deadline => 50 ms;
end driver_mode_logic;

thread instrument_panel
features
  speed: in data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 100 ms;
  Compute_Execution_Time => 10 ms;
  Compute_Deadline => 100 ms;
end instrument_panel;

thread ref_speed
features
  refspeed: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 50 ms;
  Compute_Execution_Time => 10 ms;
  Compute_Deadline => 50 ms;
end ref_speed;

thread cruise1
features
  mode: in data port;
  refspeed: in data port;
  law: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 50 ms;
  Compute_Execution_Time => %d ms;
  Compute_Deadline => 50 ms;
end cruise1;

thread cruise2
features
  mode: in data port;
  law: in data port;
  speed: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 50 ms;
  Compute_Execution_Time => 20 ms;
  Compute_Deadline => 50 ms;
end cruise2;

system hci
features
  mode_out: out data port;
  refspeed_out: out data port;
  speed_in: in data port;
end hci;

system implementation hci.impl
subcomponents
  button_panel: thread button_panel;
  driver_mode_logic: thread driver_mode_logic;
  instrument_panel: thread instrument_panel;
  ref_speed: thread ref_speed;
connections
  hc1: port button_panel.cmd -> driver_mode_logic.cmd;
  hc2: port driver_mode_logic.mode -> mode_out;
  hc3: port ref_speed.refspeed -> refspeed_out;
  hc4: port speed_in -> instrument_panel.speed;
end hci.impl;

system ccl
features
  mode_in: in data port;
  refspeed_in: in data port;
  speed_out: out data port;
end ccl;

system implementation ccl.impl
subcomponents
  cruise1: thread cruise1;
  cruise2: thread cruise2;
connections
  cc1: port mode_in -> cruise1.mode;
  cc2: port mode_in -> cruise2.mode;
  cc3: port refspeed_in -> cruise1.refspeed;
  cc4: port cruise1.law -> cruise2.law;
  cc5: port cruise2.speed -> speed_out;
end ccl.impl;

system cruise_control
end cruise_control;

system implementation cruise_control.impl
subcomponents
  hci_processor: processor ppc;
  ccl_processor: processor ppc;
  the_bus: bus vme;
  hci: system hci.impl;
  ccl: system ccl.impl;
connections
  sc1: port hci.mode_out -> ccl.mode_in { Actual_Connection_Binding => reference (the_bus); };
  sc2: port hci.refspeed_out -> ccl.refspeed_in { Actual_Connection_Binding => reference (the_bus); };
  sc3: port ccl.speed_out -> hci.speed_in { Actual_Connection_Binding => reference (the_bus); };
properties
  Actual_Processor_Binding => reference (hci_processor) applies to hci.button_panel;
  Actual_Processor_Binding => reference (hci_processor) applies to hci.driver_mode_logic;
  Actual_Processor_Binding => reference (hci_processor) applies to hci.instrument_panel;
  Actual_Processor_Binding => reference (hci_processor) applies to hci.ref_speed;
  Actual_Processor_Binding => reference (ccl_processor) applies to ccl.cruise1;
  Actual_Processor_Binding => reference (ccl_processor) applies to ccl.cruise2;
end cruise_control.impl;
|}
    cruise1_cet

(* {1 An event-driven (aperiodic/sporadic) workload}

   A periodic producer raises events consumed by a sporadic handler
   through a bounded queue; a device-driven aperiodic logger shares the
   processor.  Exercises dispatchers 6b/6c, queues, and stimuli. *)
let event_driven ?(queue_size = 2) ?(overflow = "DropNewest") () =
  Printf.sprintf
    {|
processor cpu
properties
  Scheduling_Protocol => DEADLINE_MONOTONIC_PROTOCOL;
end cpu;

device radar
features
  ping: out event port;
properties
  Period => 16 ms;
end radar;

thread producer
features
  tick: out event data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end producer;

thread handler
features
  job: in event data port { Queue_Size => %d; Overflow_Handling_Protocol => %s; };
properties
  Dispatch_Protocol => Sporadic;
  Period => 4 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end handler;

thread logger
features
  evt: in event port;
properties
  Dispatch_Protocol => Aperiodic;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 16 ms;
end logger;

system root
end root;

system implementation root.impl
subcomponents
  cpu1: processor cpu;
  radar1: device radar;
  producer: thread producer;
  handler: thread handler;
  logger: thread logger;
connections
  e1: port producer.tick -> handler.job;
  e2: port radar1.ping -> logger.evt;
properties
  Actual_Processor_Binding => reference (cpu1) applies to producer;
  Actual_Processor_Binding => reference (cpu1) applies to handler;
  Actual_Processor_Binding => reference (cpu1) applies to logger;
end root.impl;
|}
    queue_size overflow

(* Re-export: the ACSR systems of the paper's Figures 2 and 3. *)
module Paper_figs = Paper_figs

(* {1 A multi-modal system (extension beyond the paper's translation)}

   A controller thread raises an alarm event that switches the system
   from the nominal mode to a degraded mode; one worker runs per mode.
   The combined utilization of both workers would overload the processor,
   so the analysis only succeeds if mode exclusion is honored.
   [degraded_cet_ms] tunes the degraded-mode worker: 6 ms keeps both
   modes feasible, 9 ms overloads the degraded mode. *)
let modal_system ?(degraded_cet_ms = 6) () =
  Printf.sprintf
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;

thread controller
features
  alarm: out event port;
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 10 ms;
end controller;

thread worker_nominal
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 3 ms;
  Compute_Deadline => 10 ms;
end worker_nominal;

thread worker_degraded
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => %d ms;
  Compute_Deadline => 10 ms;
end worker_degraded;

system root
end root;

system implementation root.impl
subcomponents
  cpu1: processor cpu;
  ctl: thread controller;
  wn: thread worker_nominal in modes (nominal);
  wd: thread worker_degraded in modes (degraded);
modes
  nominal: initial mode;
  degraded: mode;
  nominal -[ ctl.alarm ]-> degraded;
  degraded -[ ctl.alarm ]-> nominal;
properties
  Actual_Processor_Binding => reference (cpu1) applies to ctl;
  Actual_Processor_Binding => reference (cpu1) applies to wn;
  Actual_Processor_Binding => reference (cpu1) applies to wd;
end root.impl;
|}
    degraded_cet_ms

(* {1 Cross-processor shared data}

   Two threads on different processors share a data component through
   access connections.  Each thread holds the (whole-quantum) data
   resource while computing, so their executions serialize on it: the
   data component's demand is the sum of both execution times per period.
   With [t1 C=2, t2 C=3, periods 4] the data demand is 5 > 4: the system
   is unschedulable even though each processor alone is nearly idle —
   the kind of interaction the paper's approach captures and classical
   per-processor analysis misses. *)
let shared_data_system ?(t2_cet_ms = 3) ?(protocol = "Priority_Ceiling") () =
  Printf.sprintf
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;

data store
properties
  Concurrency_Control_Protocol => %s;
end store;

thread writer
features
  da: requires data access store;
properties
  Dispatch_Protocol => Periodic;
  Period => 4 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 4 ms;
end writer;

thread reader
features
  da: requires data access store;
properties
  Dispatch_Protocol => Periodic;
  Period => 4 ms;
  Compute_Execution_Time => %d ms;
  Compute_Deadline => 4 ms;
end reader;

system root
end root;

system implementation root.impl
subcomponents
  cpu_a: processor cpu;
  cpu_b: processor cpu;
  sd: data store;
  w: thread writer;
  r: thread reader;
connections
  d1: data access w.da <-> sd;
  d2: data access r.da <-> sd;
properties
  Actual_Processor_Binding => reference (cpu_a) applies to w;
  Actual_Processor_Binding => reference (cpu_b) applies to r;
end root.impl;
|}
    protocol t2_cet_ms

(* {1 Hierarchical scheduling (extension; paper Section 7 future work)}

   One processor under HIERARCHICAL_PROTOCOL: a critical process and a
   best-effort process, ranked by their Priority properties; rate-
   monotonic locally in the critical group, EDF locally in the best-effort
   group.  With the critical group on top everything fits; ranking the
   best-effort group above starves the tight-deadline critical thread. *)
let hierarchical_system ?(critical_rank = 10) ?(besteffort_rank = 1) () =
  Printf.sprintf
    {|
processor cpu
properties
  Scheduling_Protocol => HIERARCHICAL_PROTOCOL;
end cpu;

thread h1
properties
  Dispatch_Protocol => Periodic;
  Period => 4 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 2 ms;
end h1;

thread h2
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 8 ms;
end h2;

thread be
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end be;

process critical
end critical;

process implementation critical.impl
subcomponents
  h1: thread h1;
  h2: thread h2;
end critical.impl;

process besteffort
end besteffort;

process implementation besteffort.impl
subcomponents
  be1: thread be;
  be2: thread be;
end besteffort.impl;

system root
end root;

system implementation root.impl
subcomponents
  cpu1: processor cpu;
  crit: process critical.impl { Priority => %d; Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL; };
  bg: process besteffort.impl { Priority => %d; Scheduling_Protocol => EDF_PROTOCOL; };
properties
  Actual_Processor_Binding => reference (cpu1) applies to crit.h1;
  Actual_Processor_Binding => reference (cpu1) applies to crit.h2;
  Actual_Processor_Binding => reference (cpu1) applies to bg.be1;
  Actual_Processor_Binding => reference (cpu1) applies to bg.be2;
end root.impl;
|}
    critical_rank besteffort_rank

(* {1 A larger avionics-flavoured reference system}

   Three processors and a bus: an I/O partition (rate-monotonic), a
   flight-control partition under EDF, and a mission partition
   (rate-monotonic), connected by bus-mapped data flows from sensing to
   actuation and up to mission planning.  Used as the large end-to-end
   example and for scalability measurements. *)
let avionics () =
  {|
processor io_cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end io_cpu;

processor flight_cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end flight_cpu;

processor mission_cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end mission_cpu;

bus avionics_bus
end avionics_bus;

thread sensor_poll
features
  samples: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end sensor_poll;

thread actuator_drive
features
  cmds: in data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end actuator_drive;

thread rate_damping
properties
  Dispatch_Protocol => Periodic;
  Period => 4 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 4 ms;
end rate_damping;

thread attitude_control
features
  samples: in data port;
  cmds: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 8 ms;
  Compute_Execution_Time => 2 ms;
  Compute_Deadline => 8 ms;
end attitude_control;

thread guidance
features
  track: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 16 ms;
  Compute_Execution_Time => 4 ms;
  Compute_Deadline => 16 ms;
end guidance;

thread nav_update
features
  track: in data port;
  fix: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 16 ms;
  Compute_Execution_Time => 3 ms;
  Compute_Deadline => 16 ms;
end nav_update;

thread mission_plan
features
  fix: in data port;
  plan: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 16 ms;
  Compute_Execution_Time => 4 ms;
  Compute_Deadline => 16 ms;
end mission_plan;

thread telemetry
features
  plan: in data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 16 ms;
  Compute_Execution_Time => 3 ms;
  Compute_Deadline => 16 ms;
end telemetry;

system avionics
end avionics;

system implementation avionics.impl
subcomponents
  io_cpu: processor io_cpu;
  flight_cpu: processor flight_cpu;
  mission_cpu: processor mission_cpu;
  b: bus avionics_bus;
  sensor_poll: thread sensor_poll;
  actuator_drive: thread actuator_drive;
  rate_damping: thread rate_damping;
  attitude_control: thread attitude_control;
  guidance: thread guidance;
  nav_update: thread nav_update;
  mission_plan: thread mission_plan;
  telemetry: thread telemetry;
connections
  f1: port sensor_poll.samples -> attitude_control.samples { Actual_Connection_Binding => reference (b); };
  f2: port attitude_control.cmds -> actuator_drive.cmds { Actual_Connection_Binding => reference (b); };
  f3: port guidance.track -> nav_update.track { Actual_Connection_Binding => reference (b); };
  f4: port nav_update.fix -> mission_plan.fix;
  f5: port mission_plan.plan -> telemetry.plan;
properties
  Actual_Processor_Binding => reference (io_cpu) applies to sensor_poll;
  Actual_Processor_Binding => reference (io_cpu) applies to actuator_drive;
  Actual_Processor_Binding => reference (flight_cpu) applies to rate_damping;
  Actual_Processor_Binding => reference (flight_cpu) applies to attitude_control;
  Actual_Processor_Binding => reference (flight_cpu) applies to guidance;
  Actual_Processor_Binding => reference (mission_cpu) applies to nav_update;
  Actual_Processor_Binding => reference (mission_cpu) applies to mission_plan;
  Actual_Processor_Binding => reference (mission_cpu) applies to telemetry;
end avionics.impl;
|}
