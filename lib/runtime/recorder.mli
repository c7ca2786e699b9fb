(** The runtime's attempt recorder.

    The action-level record of a parallel run is the engine's own trace:
    conflicting steps always run under a common stripe, so the trace the
    engine accumulates orders every conflicting pair as it happened (a
    conflict-faithful linearization), and {!Pool.result.history} hands it
    to the oracle unchanged.

    What the engine cannot know is the attempt structure above it — which
    logical job each transaction id belonged to, how often it was
    restarted, on which worker, at which declared level, and how long
    each attempt took. The recorder journals exactly that, into
    per-worker striped buffers (one mutex per worker, so appends never
    contend) with a global atomic sequence number that gives the merged
    journal a total order. The pool keeps one only for runs that keep
    their history; the journal lives in memory. *)

type outcome = Committed | Aborted of Core.Engine.abort_reason

type entry = {
  seq : int;  (** global completion order *)
  job : int;  (** index of the logical job *)
  name : string;
  level : Isolation.Level.t;
  tid : History.Action.txn;  (** transaction id of this attempt *)
  attempt : int;  (** 1-based attempt number for the job *)
  worker : int;
  start_ns : int;
  finish_ns : int;
  outcome : outcome;
}

type t

val create : ?stripes:int -> unit -> t

val record :
  t ->
  job:int ->
  name:string ->
  level:Isolation.Level.t ->
  tid:History.Action.txn ->
  attempt:int ->
  worker:int ->
  start_ns:int ->
  finish_ns:int ->
  outcome ->
  unit

val entries : t -> entry list
(** The merged journal in completion order. Call after workers joined. *)
