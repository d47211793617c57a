(** IIS CGI filename superfluous decoding — Figure 7, Bugtraq #2708.

    IIS checks the requested CGI path for ["../"] after {e one} pass
    of URL decoding, then decodes a {e second} time before resolving
    the file under [/wwwroot/scripts].  ["..%252f"] survives the
    check (it is ["..%2f"] after one pass) and becomes ["../"] after
    the second, so the target escapes the scripts directory — the
    hole Nimda exploited. *)

type config = { single_decode : bool (** the fix: decode exactly once *) }

val vulnerable : config

type t

val setup : ?config:config -> unit -> t

val handle_request : t -> string -> Outcome.t
(** Process one CGI request path (URL-encoded, relative to
    [/wwwroot/scripts]). *)

val model : t -> Pfsm.Model.t
(** Figure 7.  Scenario key: ["request.path"]. *)

val scenario : path:string -> Pfsm.Env.t

val attack_path : string
(** ["..%252f..%252fwinnt%252fsystem32%252fcmd.exe"]. *)

val benign_path : string
