(** Service and method definitions.

    A method couples its wire schemas with two things the simulator
    needs: a real executable behaviour (so tests can check end-to-end
    payload fidelity) and a nominal handler CPU time (the simulated cost
    of running the handler body, excluding all stack overhead — stack
    overheads are what the experiments measure). *)

type call_fn =
  service_id:int -> method_id:int -> Value.t -> (Value.t -> unit) -> unit
(** Issue a nested RPC to another (colocated) service; the continuation
    fires with the decoded result. Provided to nested handlers by the
    hosting stack. *)

type nested_handler =
  call:call_fn -> Value.t -> done_:(Value.t -> unit) -> unit
(** A handler that may perform nested calls (paper §6). It must invoke
    [done_] exactly once with its result; nested calls are issued
    sequentially through [call] (continuation-passing style). *)

type method_def = {
  method_id : int;
  method_name : string;
  request : Schema.t;
  response : Schema.t;
  execute : Value.t -> Value.t;
  handler_time : Sim.Units.duration;
  nested : nested_handler option;
      (** When set, stacks that support nested calls run this instead
          of [execute] ([execute] remains the fallback for stacks that
          do not). *)
}

type service_def = {
  service_id : int;
  service_name : string;
  methods : method_def list;
}

val service : id:int -> name:string -> method_def list -> service_def
(** @raise Invalid_argument on duplicate method ids. *)

val find_method : service_def -> int -> method_def option

val method_by_id : service_def -> int -> method_def
(** {!find_method} without the option (or a closure): what a receive
    path calls per request.
    @raise Not_found for an unknown method id. *)

val method_def :
  id:int -> name:string -> request:Schema.t -> response:Schema.t ->
  ?handler_time:Sim.Units.duration -> ?nested:nested_handler ->
  (Value.t -> Value.t) -> method_def
(** [handler_time] defaults to 500 ns — a small microservice handler. *)

(** {1 Stock services used by examples, tests, and benchmarks} *)

val echo_service : id:int -> service_def
(** Method 0 ["echo"]: returns its blob argument unchanged. *)

val counter_service : id:int -> service_def
(** Method 0 ["add"]: int → running sum (stateful). Method 1 ["read"]:
    unit → current sum. *)

val kv_service : id:int -> ?handler_time:Sim.Units.duration -> unit ->
  service_def
(** An in-memory key-value store. Method 0 ["get"]: str → (bool * blob);
    method 1 ["put"]: (str * blob) → unit; method 2 ["delete"]: str →
    bool. *)
