#include "artifact/cell_store.hpp"

#include <fstream>
#include <utility>

#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::artifact {

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path.string());
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  if (in.bad()) throw Error("cannot read " + path.string());
  return content;
}

void write_file_atomic(const std::filesystem::path& path,
                       const std::string& content) {
  const std::filesystem::path temp = path.string() + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();
    if (!out) throw Error("cannot write " + temp.string());
  }
  std::filesystem::rename(temp, path);
}

CellStore::CellStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_ / "cells");
}

std::filesystem::path CellStore::cell_path(const std::string& hash) const {
  return dir_ / "cells" / (hash + ".json");
}

bool CellStore::contains(const std::string& hash) const {
  return std::filesystem::exists(cell_path(hash));
}

std::optional<support::Json> CellStore::load(const std::string& hash) const {
  const auto path = cell_path(hash);
  if (!std::filesystem::exists(path)) return std::nullopt;
  support::Json cell = support::Json::parse(read_text_file(path));
  const auto& stored_hash = cell.at("hash").as_string();
  if (stored_hash != hash) {
    throw InvalidArgument("artifact cell " + path.string() + " records hash " +
                          stored_hash + " — the file was moved or corrupted");
  }
  const auto schema = cell.at("schema_version").as_int();
  if (schema != kSchemaVersion) {
    throw StaleCell("artifact cell " + path.string() + " has schema version " +
                    support::dec(schema) + ", this build expects " +
                    support::dec(kSchemaVersion));
  }
  return cell;
}

void CellStore::save(const std::string& hash,
                     const support::Json& envelope) const {
  write_file_atomic(cell_path(hash), envelope.dump(2));
}

}  // namespace srm::artifact
