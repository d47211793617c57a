(** Execution fuel for the exhaustive analyses.

    [Scheduler.explore], [Search.hidden_paths] and [Pfsm.Verify] all
    enumerate combinatorial spaces.  A budget bounds how much of the
    space they walk; the result then carries an explicit {!coverage}
    so a truncated run can never be mistaken for an exhaustive one. *)

type t

val unlimited : unit -> t

val of_fuel : int -> t
(** A budget of [n] units (schedules, scenarios, candidates —
    whatever the consumer counts).  Negative fuel clamps to zero. *)

val take : t -> bool
(** Spend one unit.  [false] means the budget is exhausted and the
    unit was {e not} granted. *)

val used : t -> int

val exhausted : t -> bool

type coverage = Complete | Partial of { covered : int; total : int }

val coverage : covered:int -> total:int -> coverage

val complete : coverage -> bool
