#include "obs/trace.hpp"

#include <limits>

namespace cebinae::obs {

double TraceRow::scalar(std::string_view name) const {
  for (const auto& [k, v] : scalars_) {
    if (k == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const std::vector<double>* TraceRow::array(std::string_view name) const {
  for (const auto& [k, v] : arrays_) {
    if (k == name) return &v;
  }
  return nullptr;
}

void TraceRow::write_fields(exp::JsonObject& obj) const {
  obj.set("t_s", t_s_);
  for (const auto& [k, v] : scalars_) obj.set(k, v);
  for (const auto& [k, v] : arrays_) obj.set(k, v);
}

std::vector<double> series_of(const std::vector<TraceRow>& rows, std::string_view scalar_name) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const TraceRow& row : rows) out.push_back(row.scalar(scalar_name));
  return out;
}

}  // namespace cebinae::obs
