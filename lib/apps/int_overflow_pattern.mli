(** The generic signed-integer-overflow exploitation pattern behind
    Table 1.

    Bugtraq filed the {e same} mechanism under three categories
    because analysts pinned it to three different elementary
    activities: getting the input integer (#3163, input validation),
    using it as an array index (#5493, boundary condition), and
    executing code through the corrupted pointer (#3958, access
    validation).  This module builds the three-activity chain as one
    FSM model — running an exploit through it drives a hidden path at
    {e every} activity, which is the paper's Observation 1: each
    activity is an independent classification (and protection)
    point. *)

type activity = Get_input | Index_array | Execute_reference

val activities : activity list

val activity_description : activity -> string

val category_assigned : activity -> Vulndb.Category.t
(** The Bugtraq category an analyst pinning the flaw at this activity
    assigns. *)

val bugtraq_example : activity -> int
(** The Table-1 report filed at this activity (#3163/#5493/#3958). *)

val model : unit -> Pfsm.Model.t
(** The generic chain, assembled from {!Pfsm.Checks}. Scenario key:
    ["input.str"]. *)

val exploit_scenario : Pfsm.Env.t
(** A decimal beyond 2{^31} that wraps negative. *)

val benign_scenario : Pfsm.Env.t

val ambiguity_rows : unit -> (activity * int * Vulndb.Category.t * bool) list
(** For each activity: its Table-1 report, its category, and whether
    the exploit scenario drives a hidden path there (always [true] on
    the vulnerable chain — the formal content of Table 1). *)
