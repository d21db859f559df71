let registry : (string, Logs.src) Hashtbl.t = Hashtbl.create 16

(* Per-source level overrides ("iolite.cache" -> Some Debug), applied to
   matching sources both retroactively (at [setup]/[set_source_level]
   time) and to sources declared afterwards. *)
let overrides : (string, Logs.level option) Hashtbl.t = Hashtbl.create 8

let src name =
  let full = "iolite." ^ name in
  match Hashtbl.find_opt registry full with
  | Some s -> s
  | None ->
    let s = Logs.Src.create full ~doc:("IO-Lite subsystem: " ^ name) in
    Hashtbl.replace registry full s;
    (match Hashtbl.find_opt overrides full with
    | Some level -> Logs.Src.set_level s level
    | None -> ());
    s

let canonical name =
  if String.length name > 7 && String.sub name 0 7 = "iolite." then name
  else "iolite." ^ name

let set_source_level name level =
  let full = canonical name in
  Hashtbl.replace overrides full level;
  match Hashtbl.find_opt registry full with
  | Some s -> Logs.Src.set_level s level
  | None -> ()

let parse_directive directive =
  match String.index_opt directive '=' with
  | None ->
    Error
      (Printf.sprintf "bad --log directive %S (expected SOURCE=LEVEL)"
         directive)
  | Some i -> (
    let name = String.sub directive 0 i in
    let level_s =
      String.lowercase_ascii
        (String.sub directive (i + 1) (String.length directive - i - 1))
    in
    if name = "" then Error (Printf.sprintf "bad --log directive %S" directive)
    else
      match level_s with
      | "off" | "quiet" | "none" -> Ok (canonical name, None)
      | _ -> (
        match Logs.level_of_string level_s with
        | Ok level -> Ok (canonical name, level)
        | Error (`Msg m) ->
          Error (Printf.sprintf "bad --log level %S: %s" level_s m)))

let apply_directive directive =
  match parse_directive directive with
  | Ok (name, level) ->
    set_source_level name level;
    Ok ()
  | Error _ as e -> e

let setup ?(level = Logs.Info) ?(directives = []) () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level ~all:false None;
  (* Sources created after setup also get the level. *)
  Logs.set_level ~all:true (Some level);
  List.iter
    (fun d ->
      match apply_directive d with
      | Ok () -> ()
      | Error m -> Printf.eprintf "warning: %s\n%!" m)
    directives;
  (* Overrides win over the global level for their sources. *)
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) overrides []
  |> List.iter (fun (name, l) -> set_source_level name l)
