(* Recorded history-check digests, one "txns seed index digest" line each
   in perfbench/digests.txt (txns is the history size). A digest condenses
   every witness count, the serializability verdict and the mixed matrix
   of one seeded history, so a detector rewrite must reproduce them
   exactly. Regenerate the file with [perfbench.exe --record-digests N]
   only when the verdict is meant to change. *)

let path = Filename.concat "perfbench" "digests.txt"

let table =
  lazy
    (let t = Hashtbl.create 256 in
     (match open_in path with
     | exception Sys_error _ -> ()
     | ic ->
       (try
          while true do
            match String.split_on_char ' ' (String.trim (input_line ic)) with
            | [ txns; seed; k; d ] -> (
              match
                (int_of_string_opt txns, int_of_string_opt seed, int_of_string_opt k)
              with
              | Some txns, Some seed, Some k -> Hashtbl.replace t (txns, seed, k) d
              | _ -> ())
            | _ -> ()
          done
        with End_of_file -> ());
       close_in ic);
     t)

let lookup ~txns ~seed ~k = Hashtbl.find_opt (Lazy.force table) (txns, seed, k)

let count () = Hashtbl.length (Lazy.force table)
