type severity = Info | Warning | Error

type code =
  [ `Not_psd
  | `No_convergence
  | `Non_finite
  | `Out_of_domain
  | `Degraded_fallback
  | `Invalid_input
  | `Fault_injected
  | `Skipped_samples ]

type event = {
  severity : severity;
  code : code;
  stage : string;
  detail : string;
}

exception Failure of event

type sink = {
  mutex : Mutex.t;
  mutable rev_events : event list; (* newest first *)
}

let create () = { mutex = Mutex.create (); rev_events = [] }

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let code_name = function
  | `Not_psd -> "not-psd"
  | `No_convergence -> "no-convergence"
  | `Non_finite -> "non-finite"
  | `Out_of_domain -> "out-of-domain"
  | `Degraded_fallback -> "degraded-fallback"
  | `Invalid_input -> "invalid-input"
  | `Fault_injected -> "fault-injected"
  | `Skipped_samples -> "skipped-samples"

let to_string e =
  Printf.sprintf "[%s] %s (%s): %s" (severity_name e.severity) e.stage
    (code_name e.code) e.detail

let pp_event fmt e = Format.pp_print_string fmt (to_string e)

let to_json e =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("severity", Jsonx.Str (severity_name e.severity));
         ("code", Jsonx.Str (code_name e.code));
         ("stage", Jsonx.Str e.stage);
         ("detail", Jsonx.Str e.detail);
       ])

(* Put the event on the trace timeline as an instant under the active
   span, so degraded fallbacks are visible in chrome://tracing. *)
let bridge e =
  if Trace.enabled () then
    Trace.instant
      ~attrs:
        [
          ("severity", severity_name e.severity);
          ("stage", e.stage);
          ("detail", e.detail);
        ]
      ("diag:" ^ code_name e.code)

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let add sink e =
  locked sink (fun () -> sink.rev_events <- e :: sink.rev_events)

let record ?sink severity code ~stage detail =
  if Trace.enabled () || sink <> None then begin
    let e = { severity; code; stage; detail } in
    bridge e;
    match sink with None -> () | Some s -> add s e
  end

let fail ?sink code ~stage detail =
  let e = { severity = Error; code; stage; detail } in
  bridge e;
  (match sink with None -> () | Some s -> add s e);
  raise (Failure e)

let events sink = locked sink (fun () -> List.rev sink.rev_events)

let count ?(min_severity = Info) ?code sink =
  let matches e =
    severity_rank e.severity >= severity_rank min_severity
    && match code with None -> true | Some c -> e.code = c
  in
  locked sink (fun () ->
      List.fold_left (fun acc e -> if matches e then acc + 1 else acc) 0 sink.rev_events)

let clear sink =
  locked sink (fun () -> sink.rev_events <- [])
