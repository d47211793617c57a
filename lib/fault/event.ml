type t =
  | Heap_denied of { requested : int; allocation : int }
  | Connection_reset of { recv : int }
  | Recv_clamped of { requested : int; chunk : int }
  | Fs_denied of { path : string }
  | Bit_flipped of { bit : int; byte : int; len : int }
  | Store_torn of { write : int; kept : int; len : int }
  | Store_flipped of { write : int; bit : int; byte : int }
  | Store_failed of { write : int; errno : string }
  | Store_crashed of { write : int }
  | Step_dropped of { step : int; steps : int; schedule : int }
  | Step_duplicated of { step : int; steps : int; schedule : int }

let seam = function
  | Heap_denied _ -> "machine.heap"
  | Connection_reset _ | Recv_clamped _ -> "osmodel.socket"
  | Fs_denied _ -> "osmodel.filesystem"
  | Bit_flipped _ -> "machine.memory"
  | Store_torn _ | Store_flipped _ | Store_failed _ | Store_crashed _ -> "store.io"
  | Step_dropped _ | Step_duplicated _ -> "osmodel.scheduler"

let detail = function
  | Heap_denied { requested; allocation } ->
      Printf.sprintf "malloc(%d) denied (allocation #%d)" requested allocation
  | Connection_reset { recv } -> Printf.sprintf "connection reset at recv #%d" recv
  | Recv_clamped { requested; chunk } ->
      Printf.sprintf "recv(%d) clamped to %d bytes" requested chunk
  | Fs_denied { path } -> Printf.sprintf "EACCES on %s" path
  | Bit_flipped { bit; byte; len } ->
      Printf.sprintf "bit %d of byte %d flipped in a %d-byte write" bit byte len
  | Store_torn { write; kept; len } ->
      Printf.sprintf "write #%d torn: %d of %d bytes reach disk" write kept len
  | Store_flipped { write; bit; byte } ->
      Printf.sprintf "write #%d corrupted: bit %d of byte %d flipped" write bit byte
  | Store_failed { write; errno } -> Printf.sprintf "write #%d failed: %s" write errno
  | Store_crashed { write } ->
      Printf.sprintf "write #%d crashed before rename (orphan tmp)" write
  | Step_dropped { step; steps; schedule } ->
      Printf.sprintf "step %d of %d dropped (schedule #%d)" step steps schedule
  | Step_duplicated { step; steps; schedule } ->
      Printf.sprintf "step %d of %d duplicated (schedule #%d)" step steps schedule

let pp ppf t = Format.fprintf ppf "[%s] %s" (seam t) (detail t)
