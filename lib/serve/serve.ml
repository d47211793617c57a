(* [Serve.Json] is lib/json's codec, reachable here for the callers
   that name it through [Serve]. *)

module Admission = Admission
module Handlers = Handlers
module Json = Json
module Protocol = Protocol
module Server = Server
